package main

import (
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"time"

	"flywheel/internal/cacti"
	"flywheel/internal/fabric"
	"flywheel/internal/lab"
	"flywheel/internal/lab/store"
	"flywheel/internal/labd"
	"flywheel/internal/sim"
	"flywheel/internal/workload"
)

// serviceReps is how many timed calls each service entry point gets; the
// reported cost is the median call.
const serviceReps = 15

// timeServices times the service layers' public entry points one call at a
// time on cluster-skew's job shape (paper workloads at the cluster budget):
// the run cache's memory, disk and simulation tiers, the store, a labd
// worker called directly, and the coordinator hop in front of it.
func timeServices(tr *tracer) ([]metric, error) {
	root := tr.start("services", span{}, 0)
	defer root.finish()
	dir, err := filepath.Abs(filepath.Join(outRoot, fmt.Sprintf("services-%d", os.Getpid())))
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var jobs []lab.Job
	for _, name := range workload.Names() {
		jobs = append(jobs, lab.Job{Workload: name, Arch: sim.ArchFlywheel, Node: cacti.Node130, FEBoostPct: 50, BEBoostPct: 50, MaxInstructions: clusterBudget})
	}
	results, err := lab.Run(jobs, lab.Options{Workers: 1, Cache: lab.NewCache()})
	if err != nil {
		return nil, err
	}

	var out []metric
	// call times fn serviceReps times (k is the call index) under spans
	// and returns the median duration.
	call := func(name string, fn func(k int) error) (time.Duration, error) {
		var ds []float64
		for k := 0; k < serviceReps; k++ {
			sp := tr.start(name, root, 0)
			start := time.Now()
			err := fn(k)
			d := time.Since(start)
			sp.finish()
			if err != nil {
				return 0, fmt.Errorf("%s: %w", name, err)
			}
			ds = append(ds, float64(d))
		}
		return time.Duration(median(ds)), nil
	}
	us := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }
	ms := func(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

	st, err := store.Open(filepath.Join(dir, "store"))
	if err != nil {
		return nil, err
	}
	d, err := call("store.Put", func(k int) error {
		j := jobs[k%len(jobs)]
		return st.Put(j.Key(), results[k%len(jobs)])
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"store.put_us", us(d), "us"})
	d, err = call("store.Get", func(k int) error {
		if _, ok := st.Get(jobs[k%len(jobs)].Key()); !ok {
			return fmt.Errorf("stored entry missing")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"store.get_us", us(d), "us"})

	// The run cache: a disk hit on a fresh cache over the store, then a
	// memory hit on the same key; a simulation on a cache without a store.
	caches := make([]*lab.Cache, serviceReps)
	d, err = call("lab.Cache.Do.disk", func(k int) error {
		caches[k] = lab.NewCacheWithStore(st)
		_, err := caches[k].Do(jobs[k%len(jobs)])
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"lab.do_us.disk", us(d), "us"})
	d, err = call("lab.Cache.Do.mem", func(k int) error {
		_, err := caches[k].Do(jobs[k%len(jobs)])
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"lab.do_us.mem", us(d), "us"})
	d, err = call("lab.Cache.Do.sim", func(k int) error {
		_, err := lab.NewCache().Do(jobs[k%len(jobs)])
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"lab.do_ms.sim", ms(d), "ms"})

	// labd called directly, and the same cached batch through a
	// coordinator over two such workers: the difference is the hop.
	var urls []string
	for i := 0; i < clusterShards; i++ {
		cache := lab.NewCache()
		if _, err := lab.Run(jobs, lab.Options{Workers: 1, Cache: cache}); err != nil {
			return nil, err
		}
		srv := labd.NewServer(cache)
		srv.SetLogf(nil)
		ts := httptest.NewServer(srv.Handler())
		defer ts.Close()
		urls = append(urls, ts.URL)
	}
	direct := labd.NewClient(urls[0])
	batch := func(k int) []lab.Job {
		b := make([]lab.Job, clusterBatch)
		for i := range b {
			b[i] = jobs[(k+i)%len(jobs)]
		}
		return b
	}
	dDirect, err := call("labd.Client.Sweep", func(k int) error {
		_, err := direct.Sweep(labd.SweepRequest{Jobs: batch(k)})
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"labd.sweep_ms", ms(dDirect), "ms"})
	q := frontierQueries[0]
	if _, err := direct.Frontier(q); err != nil {
		return nil, err
	}
	d, err = call("labd.Client.Frontier", func(int) error {
		_, err := direct.Frontier(q)
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"labd.frontier_ms", ms(d), "ms"})

	coord, err := fabric.New(fabric.Options{Workers: urls})
	if err != nil {
		return nil, err
	}
	front := httptest.NewServer(coord.Handler())
	defer front.Close()
	viaCoord := labd.NewClient(front.URL)
	dCoord, err := call("fabric.Coordinator", func(k int) error {
		_, err := viaCoord.Sweep(labd.SweepRequest{Jobs: batch(k)})
		return err
	})
	if err != nil {
		return nil, err
	}
	out = append(out, metric{"fabric.hop_ms", ms(dCoord - dDirect), "ms"})
	return out, nil
}
