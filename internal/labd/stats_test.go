package labd_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"slices"
	"strings"
	"testing"

	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
)

// jsonKeys returns every leaf of a decoded JSON document as its dotted
// path and JSON type, sorted; array elements share the path "name[]".
func jsonKeys(doc any) []string {
	var out []string
	var walk func(path string, v any)
	walk = func(path string, v any) {
		switch v := v.(type) {
		case map[string]any:
			for k, e := range v {
				walk(strings.TrimPrefix(path+"."+k, "."), e)
			}
		case []any:
			for _, e := range v {
				walk(path+"[]", e)
			}
		default:
			out = append(out, fmt.Sprintf("%s %T", path, v))
		}
	}
	walk("", doc)
	slices.Sort(out)
	return slices.Compact(out)
}

// statsKeys is the /v1/stats document of a memory-only worker.
var statsKeys = []string{
	"analytic_cells float64",
	"cache.DiskHits float64",
	"cache.Entries float64",
	"cache.Hits float64",
	"cache.InFlight float64",
	"cache.Misses float64",
	"cache.Repriced float64",
	"canceled_jobs float64",
	"confirmed_cells float64",
	"dropped_replies float64",
	"frontend.cond_branches float64",
	"frontend.mispredicts float64",
	"frontend.prefetch_issued float64",
	"frontend.prefetch_late float64",
	"frontend.prefetch_useful float64",
	"quarantined_files float64",
	"sampled_cells float64",
	"scrubs float64",
	"trace_cache.Bypasses float64",
	"trace_cache.Entries float64",
	"trace_cache.Evictions float64",
	"trace_cache.Hits float64",
	"trace_cache.Misses float64",
	"trace_cache.ResidentBytes float64",
	"uptime_seconds float64",
	"version string",
}

// storeKeys is what a worker with a disk tier adds to statsKeys.
var storeKeys = []string{
	"store.bad_entries float64",
	"store.bytes float64",
	"store.dir string",
	"store.entries float64",
	"store.hits float64",
	"store.misses float64",
	"store.puts float64",
}

// TestStatsKeysGolden pins the key set and nesting of /v1/stats, with and
// without a store: clients and dashboards read these names, and a
// refactor of how the counters are kept must not rename or move one.
func TestStatsKeysGolden(t *testing.T) {
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	withStore := slices.Sorted(slices.Values(append(slices.Clone(statsKeys), storeKeys...)))
	for _, c := range []struct {
		name  string
		cache *lab.Cache
		want  []string
	}{
		{"memory-only", lab.NewCache(), statsKeys},
		{"store", lab.NewCacheWithStore(st), withStore},
	} {
		ts, _ := startServer(t, c.cache)
		resp, err := http.Get(ts.URL + "/v1/stats")
		if err != nil {
			t.Fatal(err)
		}
		var doc any
		err = json.NewDecoder(resp.Body).Decode(&doc)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got := jsonKeys(doc); !slices.Equal(got, c.want) {
			t.Errorf("%s: /v1/stats keys\n got: %q\nwant: %q", c.name, got, c.want)
		}
	}
}
