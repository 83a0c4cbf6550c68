package labd

import (
	"flag"
	"net/url"
	"sort"
	"strings"
	"testing"

	"flywheel/internal/explore"
	"flywheel/internal/sim"
)

// frontierParams are the /v1/frontier parameter names clients have always
// sent; each must stay accepted.
var frontierParams = []string{
	"arch", "audit", "auditseed", "be", "chase", "code", "entropy", "fe", "fp",
	"ilp", "margin", "mem", "n", "node", "passes", "period", "predictor",
	"prefetcher", "rr", "sample_period", "sample_seed", "sample_warmup", "seed",
	"stride", "stridebytes", "tier", "window",
}

// TestFrontierQueryAcceptsEveryFlag: the parameters are exactly the flags
// explore.Query binds, spelled with '_' for '-', and each one sets its
// field — here to its default, so the parsed query is the default query.
func TestFrontierQueryAcceptsEveryFlag(t *testing.T) {
	fs := flag.NewFlagSet("frontier", flag.ContinueOnError)
	q := explore.DefaultQuery()
	q.Bind(fs)
	var names []string
	fs.VisitAll(func(f *flag.Flag) {
		name := strings.ReplaceAll(f.Name, "-", "_")
		names = append(names, name)
		got, err := frontierQuery(url.Values{name: {f.DefValue}})
		if err != nil {
			t.Errorf("%s=%s: %v", name, f.DefValue, err)
		} else if got != explore.DefaultQuery() {
			t.Errorf("%s=%s parsed to %+v", name, f.DefValue, got)
		}
	})
	sort.Strings(names)
	if strings.Join(names, ",") != strings.Join(frontierParams, ",") {
		t.Errorf("parameters %v, want %v", names, frontierParams)
	}
}

// TestFrontierQueryEmptyValueKeepsDefault: an empty parameter is ignored,
// as it always was.
func TestFrontierQueryEmptyValueKeepsDefault(t *testing.T) {
	got, err := frontierQuery(url.Values{"ilp": {""}, "n": {""}})
	if err != nil {
		t.Fatal(err)
	}
	if got != explore.DefaultQuery() {
		t.Errorf("empty values parsed to %+v", got)
	}
}

// FuzzFrontierQuery feeds arbitrary /v1/frontier parameters through
// frontierQuery and Query.Space: neither may panic, and a query that sets
// a sampling parameter on any tier but sampled must be rejected.
func FuzzFrontierQuery(f *testing.F) {
	for _, seed := range []string{
		"", "ilp=1,4&fe=0,50", "tier=sampled&sample_period=60000",
		"tier=auto&sample_period=60000", "tier=exact&window=1000",
		"tier=analytic&margin=0.02&audit=0.05", "sample_seed=2&tier=sampled",
		"margin=NaN&tier=analytic", "entropyy=1", "n=&ilp=",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		params, err := url.ParseQuery(raw)
		if err != nil {
			return
		}
		q, err := frontierQuery(params)
		if err != nil {
			return
		}
		_, err = q.Space()
		if q.Tier != "sampled" && q.Sampling != (sim.Sampling{}) && err == nil {
			t.Fatalf("tier %q accepted sampling %+v", q.Tier, q.Sampling)
		}
	})
}
