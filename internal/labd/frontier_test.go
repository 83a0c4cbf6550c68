package labd

import (
	"flag"
	"net/url"
	"sort"
	"strings"
	"testing"

	"flywheel/internal/explore"
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
