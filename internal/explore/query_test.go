package explore

import (
	"math"
	"strings"
	"testing"
)

// TestQuerySpaceMarginAuditBounds: a margin or audit of 1 and above
// would confirm every screened cell and is rejected (the CLI tests cover
// NaN and the infinities); anything below is accepted, negative included.
func TestQuerySpaceMarginAuditBounds(t *testing.T) {
	cases := []struct {
		margin, audit float64
		ok            bool
	}{
		{0, DefaultAudit, true},
		{0.99, 0.99, true},
		{-5, -1, true},
		{1, DefaultAudit, false},
		{0, 1, false},
	}
	for _, tc := range cases {
		q := DefaultQuery()
		q.Tier, q.Margin, q.Audit = "analytic", tc.margin, tc.audit
		if _, err := q.Space(); (err == nil) != tc.ok {
			t.Errorf("margin %g audit %g: err = %v, want ok=%t", tc.margin, tc.audit, err, tc.ok)
		}
	}
}

// TestQuerySpaceGuard: the exact and sampled tiers keep the 4,096-cell
// guard; the screening tiers raise it unless MaxPoints is set.
func TestQuerySpaceGuard(t *testing.T) {
	q := DefaultQuery()
	q.ILP, q.Entropy = "1,2,3,4,5,6,7,8", "0,0.1,0.2,0.3,0.4,0.5,0.6,0.7,0.8,0.9"
	q.FE, q.BE = "0,10,20,30,40,50,60,70,80,90,100", "0,50,100" // 80 × 33 = 2,640
	q.Mem = "4,8"                                               // 5,280 cells
	for tier, ok := range map[string]bool{"exact": false, "sampled": false, "analytic": true, "auto": true} {
		q.Tier = tier
		if _, err := q.Space(); (err == nil) != ok {
			t.Errorf("tier %s: err = %v, want ok=%t", tier, err, ok)
		}
	}
	q.Tier, q.MaxPoints = "analytic", 5000
	if _, err := q.Space(); err == nil {
		t.Error("analytic tier ignored an explicit MaxPoints")
	}
}

// TestExploreTieredRejectsConfirmAll: the library entry point enforces the
// same margin limit as Query.Space.
func TestExploreTieredRejectsConfirmAll(t *testing.T) {
	_, err := ExploreTiered(tieredSpace(1_000), nil, TieredOptions{Margin: math.NaN()})
	if err == nil || !strings.Contains(err.Error(), "margin") {
		t.Errorf("NaN margin: err = %v, want a margin error", err)
	}
}
