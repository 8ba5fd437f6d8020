package fixture

import (
	//c4vet:allow layering fixture: documents the suppression path
	sc "c4/internal/scenario"
)

var allowed = sc.Scenario{Name: "allowed"}
