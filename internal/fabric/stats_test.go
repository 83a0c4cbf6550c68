package fabric

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flywheel/internal/labd"
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

// clusterStatsKeys is the coordinator's /v1/stats document over live
// memory-only workers: the workers' summed cache and service counters at
// the top level, the coordinator's own under coord, and each worker's
// reply under workers[].stats.
var clusterStatsKeys = []string{
	"analytic_cells float64",
	"cache.DiskHits float64",
	"cache.Entries float64",
	"cache.Hits float64",
	"cache.InFlight float64",
	"cache.Misses float64",
	"cache.Repriced float64",
	"canceled_jobs float64",
	"confirmed_cells float64",
	"coord.dropped_replies float64",
	"coord.hedges float64",
	"coord.jobs float64",
	"coord.pending float64",
	"coord.rejected float64",
	"coord.requests float64",
	"coord.retries float64",
	"coord.steals float64",
	"dropped_replies float64",
	"frontend.cond_branches float64",
	"frontend.mispredicts float64",
	"frontend.prefetch_issued float64",
	"frontend.prefetch_late float64",
	"frontend.prefetch_useful float64",
	"quarantined_files float64",
	"sampled_cells float64",
	"scrubs float64",
	"uptime_seconds float64",
	"workers[].failures float64",
	"workers[].p99_ms float64",
	"workers[].requests float64",
	"workers[].stats.analytic_cells float64",
	"workers[].stats.cache.DiskHits float64",
	"workers[].stats.cache.Entries float64",
	"workers[].stats.cache.Hits float64",
	"workers[].stats.cache.InFlight float64",
	"workers[].stats.cache.Misses float64",
	"workers[].stats.cache.Repriced float64",
	"workers[].stats.canceled_jobs float64",
	"workers[].stats.confirmed_cells float64",
	"workers[].stats.dropped_replies float64",
	"workers[].stats.frontend.cond_branches float64",
	"workers[].stats.frontend.mispredicts float64",
	"workers[].stats.frontend.prefetch_issued float64",
	"workers[].stats.frontend.prefetch_late float64",
	"workers[].stats.frontend.prefetch_useful float64",
	"workers[].stats.quarantined_files float64",
	"workers[].stats.sampled_cells float64",
	"workers[].stats.scrubs float64",
	"workers[].stats.trace_cache.Bypasses float64",
	"workers[].stats.trace_cache.Entries float64",
	"workers[].stats.trace_cache.Evictions float64",
	"workers[].stats.trace_cache.Hits float64",
	"workers[].stats.trace_cache.Misses float64",
	"workers[].stats.trace_cache.ResidentBytes float64",
	"workers[].stats.uptime_seconds float64",
	"workers[].stats.version string",
	"workers[].url string",
}

// TestClusterStatsKeysGolden pins the key set and nesting of the
// coordinator's /v1/stats over live memory-only workers.
func TestClusterStatsKeysGolden(t *testing.T) {
	tc := startCluster(t, 2, nil)
	ts := httptest.NewServer(tc.coord.Handler())
	t.Cleanup(ts.Close)
	if _, err := labd.NewClient(ts.URL).Sweep(labd.SweepRequest{Jobs: testBatch(2)}); err != nil {
		t.Fatal(err)
	}
	resp, err := http.Get(ts.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var doc any
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if got := jsonKeys(doc); !slices.Equal(got, clusterStatsKeys) {
		t.Errorf("/v1/stats keys\n got: %q\nwant: %q", got, clusterStatsKeys)
	}
}

// leaves calls fn with every integer field of v, through nested structs
// and arrays, in field order.
func leaves(v reflect.Value, fn func(reflect.Value)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			leaves(v.Field(i), fn)
		}
	case reflect.Array:
		for i := range v.Len() {
			leaves(v.Index(i), fn)
		}
	default:
		fn(v)
	}
}

// counterValues returns every counter of rec in field order.
func counterValues(t *testing.T, rec any) []uint64 {
	t.Helper()
	var out []uint64
	leaves(reflect.ValueOf(rec), func(v reflect.Value) {
		switch {
		case v.CanInt():
			out = append(out, uint64(v.Int()))
		case v.CanUint():
			out = append(out, v.Uint())
		default:
			t.Fatalf("counter record holds a %s", v.Type())
		}
	})
	return out
}

// TestClusterSumsEveryWorkerCounter: the cluster's cache and service
// counters are the field-by-field sums of its workers'. Each worker
// reports a distinct value in every counter of lab.Stats and
// labd.Counters, set by reflection, so a counter added to either record
// is covered with no edit here.
func TestClusterSumsEveryWorkerCounter(t *testing.T) {
	next := uint64(1)
	var urls []string
	var replies []labd.StatsReply
	for range 2 {
		var st labd.StatsReply
		for _, rec := range []any{&st.Cache, &st.Counters} {
			leaves(reflect.ValueOf(rec).Elem(), func(v reflect.Value) {
				if v.CanInt() {
					v.SetInt(int64(next))
				} else {
					v.SetUint(next)
				}
				next += 1000
			})
		}
		replies = append(replies, st)
		ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			json.NewEncoder(w).Encode(st)
		}))
		t.Cleanup(ts.Close)
		urls = append(urls, ts.URL)
	}
	coord, err := New(Options{Workers: urls})
	if err != nil {
		t.Fatal(err)
	}
	front := httptest.NewServer(coord.Handler())
	t.Cleanup(front.Close)
	resp, err := http.Get(front.URL + "/v1/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cluster ClusterStats
	if err := json.NewDecoder(resp.Body).Decode(&cluster); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		got      any
		of       func(labd.StatsReply) any
		minCount int
	}{
		{"cache", cluster.Cache, func(r labd.StatsReply) any { return r.Cache }, 6},
		{"counters", cluster.Counters, func(r labd.StatsReply) any { return r.Counters }, 12},
	} {
		got, a, b := counterValues(t, c.got), counterValues(t, c.of(replies[0])), counterValues(t, c.of(replies[1]))
		if len(got) < c.minCount {
			t.Fatalf("%s: only %d counters; the walk is missing fields", c.name, len(got))
		}
		for i := range got {
			if got[i] != a[i]+b[i] {
				t.Errorf("%s counter %d: cluster reports %d, want %d+%d", c.name, i, got[i], a[i], b[i])
			}
		}
	}
}
