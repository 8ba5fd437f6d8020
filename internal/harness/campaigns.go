package harness

import (
	"fmt"
	"strings"

	"c4/internal/campaign"
	"c4/internal/faults"
	"c4/internal/metrics"
	"c4/internal/scenario"
)

// This file registers the fault-injection campaigns under
// "campaign/<name>": generated Monte-Carlo/grid sweeps of the fault model
// over topology scale and placement, each scoring C4D diagnosis
// precision/recall against the injected ground truth and the goodput
// delta from C4P steering versus pinned routes. Each one is a one-entry
// manifest — the family at the run's seed — run as a single shard and
// merged by internal/campaign, the same path `c4campaign run` and `merge`
// take. The manifest is built here rather than committed because the
// registry seed varies per run. The aggregate numbers feed the
// bench-regression guard.

// registerCampaigns is invoked at the end of the main registration init
// (register.go) so campaigns list after the paper experiments.
func registerCampaigns() {
	for _, c := range faults.Campaigns() {
		c := c
		scenario.Register(scenario.Scenario{
			Name:        "campaign/" + c.Name,
			Group:       "campaign",
			Description: c.Description,
			Paper:       c.Paper,
			Slow:        true, // dozens of trials, two arms each
			Params: map[string]string{
				"trials":  fmt.Sprint(len(c.Gen(1))),
				"horizon": c.Horizon.String(),
			},
			Run: func(ctx *scenario.Ctx) scenario.Result { return runCampaign(ctx, c) },
			Summarize: func(r scenario.Result) string {
				agg := r.(*campaignResult).merged.Summary.Aggregate
				return fmt.Sprintf("P=%.2f R=%.2f rca=%.2f, steering %+.1f%%",
					agg["precision"], agg["recall"], agg["rca_accuracy"], agg["goodput_delta"]*100)
			},
			Metrics: func(r scenario.Result) map[string]float64 {
				return r.(*campaignResult).merged.Summary.Aggregate
			},
		})
	}
}

// runCampaign runs family c at the context's seed through the manifest
// driver. The trial pool takes the context's worker bound, so a
// `-workers 1` sweep is fully serial. A failing trial panics here, where
// the scenario runner turns it into a failed report.
func runCampaign(ctx *scenario.Ctx, c faults.Campaign) scenario.Result {
	m := &campaign.Manifest{
		Version: campaign.Version, Name: c.Name, Seed: ctx.Seed,
		Entries: []campaign.Entry{{
			Family: c.Name,
			Seeds:  &campaign.SeedRange{From: ctx.Seed, Count: 1},
		}},
	}
	p, err := (&campaign.ShardRun{Manifest: m, Of: 1, Workers: ctx.Workers}).Run()
	if err != nil {
		panic(err)
	}
	merged, err := campaign.Merge([]*campaign.Partial{p})
	if err != nil {
		panic(err)
	}
	res := &campaignResult{fam: c, seed: ctx.Seed, merged: merged,
		trials: campaign.TrialResults(merged.Records)}
	ctx.Track(res)
	return res
}

// campaignResult is one campaign/<name> run: the merged report plus the
// family whose claims it is checked against.
type campaignResult struct {
	fam    faults.Campaign
	seed   int64
	merged *campaign.Merged
	trials []faults.TrialResult
}

// Fired implements scenario.EventCounter: simulation events across every
// trial's engines.
func (r *campaignResult) Fired() uint64 {
	var n uint64
	for _, tr := range r.trials {
		n += tr.Events
	}
	return n
}

// String renders the per-trial table plus the pooled aggregate line.
func (r *campaignResult) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Campaign %s — %d trials, horizon %v, seed %d\n",
		r.fam.Name, len(r.trials), r.fam.Horizon, r.seed)
	rows := make([][]string, 0, len(r.trials))
	for _, tr := range r.trials {
		rca := "-"
		if tr.Score.RCAEvents > 0 {
			rca = fmt.Sprintf("%.2f", tr.Score.RCAAccuracy())
		}
		rows = append(rows, []string{
			tr.ID,
			fmt.Sprintf("%d/%d", tr.Score.Relevant, tr.Faults),
			fmt.Sprintf("%.2f", tr.Score.Precision()),
			fmt.Sprintf("%.2f", tr.Score.Recall()),
			rca,
			fmt.Sprintf("%.1f", tr.BaseGoodput),
			fmt.Sprintf("%.1f", tr.SteeredGoodput),
			fmt.Sprintf("%+.1f%%", tr.Delta()*100),
		})
	}
	sb.WriteString(metrics.Table(
		[]string{"trial", "rel", "P", "R", "rca", "pinned", "steered", "delta"}, rows))
	agg := r.merged.Summary.Aggregate
	fmt.Fprintf(&sb, "aggregate: precision %.2f, recall %.2f, rca %.2f, steering goodput %+.1f%%\n",
		agg["precision"], agg["recall"], agg["rca_accuracy"], agg["goodput_delta"]*100)
	return sb.String()
}

// CheckShape runs the merged report's consistency checks (coverage,
// per-trial progress, finite statistics), then the family's own claims.
func (r *campaignResult) CheckShape() error {
	if err := r.merged.Check(); err != nil {
		return err
	}
	if r.fam.Check != nil {
		return r.fam.Check(r.trials)
	}
	return nil
}
