package serve

import (
	"bytes"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"

	"c4"
	"c4/internal/telemetry"
)

// scrape fetches /metrics and returns the body.
func scrape(t *testing.T, h http.Handler) string {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q", ct)
	}
	return rec.Body.String()
}

// metricValue extracts one sample (with exact label string) from an
// exposition body.
func metricValue(t *testing.T, body, series string) string {
	t.Helper()
	re := regexp.MustCompile(`(?m)^` + regexp.QuoteMeta(series) + ` (\S+)$`)
	m := re.FindStringSubmatch(body)
	if m == nil {
		t.Fatalf("series %q not found in:\n%s", series, body)
	}
	return m[1]
}

func TestMetricsExposition(t *testing.T) {
	s := New(Config{MaxSessions: 2, MaxRunning: 1})
	h := s.Handler()

	body := scrape(t, h)
	if got := metricValue(t, body, "c4serve_sessions_created_total"); got != "0" {
		t.Fatalf("created_total = %s, want 0", got)
	}

	// Create two sessions; a third admission must evict a finished one or
	// reject. Both are still "created", so the third is a table_full reject.
	spec := []byte(`{"seed": 1, "scenario": "fig3"}`)
	for i := 0; i < 2; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(spec)))
		if rec.Code != http.StatusCreated {
			t.Fatalf("create %d = %d: %s", i, rec.Code, rec.Body)
		}
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/sessions", bytes.NewReader(spec)))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("over-cap create = %d, want 503", rec.Code)
	}

	body = scrape(t, h)
	if got := metricValue(t, body, "c4serve_sessions_created_total"); got != "2" {
		t.Fatalf("created_total = %s, want 2", got)
	}
	if got := metricValue(t, body, `c4serve_admission_rejected_total{reason="table_full"}`); got != "1" {
		t.Fatalf("table_full rejects = %s, want 1", got)
	}
	if got := metricValue(t, body, `c4serve_sessions{state="created"}`); got != "2" {
		t.Fatalf("created gauge = %s, want 2", got)
	}

	// Two scrapes of unchanged state must be byte-identical (the format
	// promises fixed ordering).
	if again := scrape(t, h); again != body {
		t.Fatalf("scrape not deterministic:\n%s\nvs\n%s", body, again)
	}

	// The ops mux serves the same exposition plus pprof.
	ops := s.OpsHandler()
	if opsBody := scrape(t, ops); opsBody != body {
		t.Fatalf("ops /metrics differs from api /metrics")
	}
	prec := httptest.NewRecorder()
	ops.ServeHTTP(prec, httptest.NewRequest(http.MethodGet, "/debug/pprof/cmdline", nil))
	if prec.Code != http.StatusOK {
		t.Fatalf("GET /debug/pprof/cmdline = %d", prec.Code)
	}
}

func TestHubDroppedAndSubscriberStats(t *testing.T) {
	// A tiny budget drops every line after the first; stats and status
	// must report the drop count, and /metrics must keep counting after
	// the hub retires.
	s := New(Config{})
	rec0 := telemetry.Record{Kind: telemetry.KindCommCreate, Node: -1, Nodes: []int{0, 1}}
	line, err := telemetry.EncodeRecord(rec0)
	if err != nil {
		t.Fatal(err)
	}
	h := newHub(len(line)) // budget = exactly one line
	for i := 0; i < 3; i++ {
		h.Observe(rec0)
	}
	records, dropped, subs, truncated := h.stats()
	if records != 1 || dropped != 2 || !truncated || subs != 0 {
		t.Fatalf("stats = (records %d, dropped %d, subs %d, trunc %t), want (1, 2, 0, true)",
			records, dropped, subs, truncated)
	}
	un := h.subscribe()
	if _, _, subs, _ := h.stats(); subs != 1 {
		t.Fatalf("subscribers = %d, want 1", subs)
	}
	un()
	if _, _, subs, _ := h.stats(); subs != 0 {
		t.Fatalf("subscribers after unsubscribe = %d, want 0", subs)
	}

	sess, err := c4.NewSession(c4.SessionOptions{Spec: c4.SessionSpec{Seed: 1, Scenario: "fig3"}})
	if err != nil {
		t.Fatal(err)
	}
	e := &session{id: "s000001", sess: sess, hub: h, state: StateDone}
	s.sessions[e.id] = e
	st := s.status(e)
	if st.Dropped != 2 || !st.Truncated {
		t.Fatalf("status dropped = %d truncated = %t, want 2 true", st.Dropped, st.Truncated)
	}
	body := scrape(t, s.Handler())
	if got := metricValue(t, body, "c4serve_sse_dropped_total"); got != "2" {
		t.Fatalf("sse_dropped_total = %s, want 2", got)
	}

	// Retire the session: the total must not go backwards.
	s.mu.Lock()
	s.retireLocked(e)
	delete(s.sessions, e.id)
	s.mu.Unlock()
	body = scrape(t, s.Handler())
	if got := metricValue(t, body, "c4serve_sse_dropped_total"); got != "2" {
		t.Fatalf("sse_dropped_total after retire = %s, want 2", got)
	}
}

func TestHubDropsRecordsThatCannotEncode(t *testing.T) {
	// A data record without its payload or of an unknown kind has no
	// wire form: the hub drops it instead of panicking, and keeps
	// streaming the records around it.
	h := newHub(0)
	good := telemetry.Record{Kind: telemetry.KindCommClose, Node: -1, Comm: 1}
	h.Observe(good)
	for _, bad := range []telemetry.Record{
		{Kind: telemetry.KindColl, Comm: 1},
		{Kind: telemetry.KindMsg, Comm: 1},
		{Kind: telemetry.KindWait, Comm: 1},
		{Kind: telemetry.Kind(42), Comm: 1},
	} {
		h.Observe(bad)
	}
	h.Observe(good)
	lines, _, _, _ := h.next(0)
	want, err := telemetry.EncodeRecord(good)
	if err != nil {
		t.Fatal(err)
	}
	if len(lines) != 2 || string(lines[0]) != string(want) || string(lines[1]) != string(want) {
		t.Fatalf("hub lines = %q, want two copies of %q", lines, want)
	}
}

func TestAccessLogMiddleware(t *testing.T) {
	var logBuf bytes.Buffer
	inner := http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if _, ok := w.(http.Flusher); !ok {
			t.Error("middleware must forward http.Flusher")
		}
		w.WriteHeader(http.StatusTeapot)
		io.WriteString(w, "short and stout")
	})
	h := AccessLog(&logBuf, inner)

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/v1/sessions", nil))
	if rec.Code != http.StatusTeapot {
		t.Fatalf("status = %d", rec.Code)
	}
	if id := rec.Header().Get("X-Request-ID"); id != "r000001" {
		t.Fatalf("X-Request-ID = %q, want r000001", id)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/healthz", nil))
	if id := rec.Header().Get("X-Request-ID"); id != "r000002" {
		t.Fatalf("second X-Request-ID = %q, want r000002", id)
	}

	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2: %q", len(lines), logBuf.String())
	}
	for _, want := range []string{"id=r000001", "method=GET", "path=/v1/sessions", "status=418", "bytes=15"} {
		if !strings.Contains(lines[0], want) {
			t.Fatalf("log line %q missing %q", lines[0], want)
		}
	}
}
