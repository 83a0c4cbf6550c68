package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"flywheel/internal/sim"
)

// tracer keeps spans in memory and writes them when the benchmark ends.
// A span is recorded around each call the benchmark makes into a layer:
// name, start, end, the span that caused it, and the request it belongs
// to. A nil *tracer is tracing off and costs nothing.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []spanRecord
}

type spanRecord struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent,omitempty"`
	Request int64  `json:"request,omitempty"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// span is an open span; finish records it.
type span struct {
	tr     *tracer
	id     int64
	parent int64
	req    int64
	name   string
	start  time.Time
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// start opens a span under parent (a zero span is a root) in request req
// (zero: not part of a request).
func (t *tracer) start(name string, parent span, req int64) span {
	if t == nil {
		return span{}
	}
	return span{tr: t, id: t.nextID.Add(1), parent: parent.id, req: req, name: name, start: time.Now()}
}

func (s span) finish() {
	t := s.tr
	if t == nil {
		return
	}
	end := time.Now()
	t.mu.Lock()
	t.spans = append(t.spans, spanRecord{
		ID: s.id, Parent: s.parent, Request: s.req, Name: s.name,
		StartNs: s.start.Sub(t.t0).Nanoseconds(), EndNs: end.Sub(t.t0).Nanoseconds(),
	})
	t.mu.Unlock()
}

func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	b, err := json.Marshal(t.spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// heapWatch samples the live heap every few milliseconds; take returns the
// peak since the previous take, in MB.
type heapWatch struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/memory/classes/heap/objects:bytes"

func startHeapWatch() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: heapMetric}}
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		for {
			metrics.Read(s)
			v := s[0].Value.Uint64()
			for {
				old := h.peak.Load()
				if v <= old || h.peak.CompareAndSwap(old, v) {
					break
				}
			}
			select {
			case <-h.stop:
				return
			case <-t.C:
			}
		}
	}()
	return h
}

// take returns the peak live heap since the last take (or start) in MB and
// restarts the window.
func (h *heapWatch) take() float64 {
	return float64(h.peak.Swap(0)) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (h *heapWatch) close() {
	close(h.stop)
	<-h.done
}

// cpuProfile is a running CPU profile written to path.
type cpuProfile struct {
	path string
	f    *os.File
}

func startProfile(path string) (*cpuProfile, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return &cpuProfile{path: path, f: f}, nil
}

func (p *cpuProfile) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// The machine the benchmark runs on is shared: other tenants' load comes
// and goes, and the same pass takes up to twice as long from one minute to
// the next, in CPU time as much as in wall time. So every time is scaled to
// a nominal machine speed: the run times a fixed reference loop between its
// units of work, and multiplies each time — the median over the run's units
// — by refNominalS over the median of the quietest quarter of the loops
// (machine.scale). The short loop catches the machine's quiet speed of the
// moment more reliably than the long units do; across runs this held the
// spread of the scaled times lowest of the estimators tried. The loop is
// the benchmark's own code, so a change to the program cannot move it.

// refNominalS is the reference loop's quiet duration on the machine the
// benchmark was tuned on (2 vCPUs of a shared x86-64 host), so scaled times
// read as seconds on that machine in a quiet phase.
const refNominalS = 0.064

// refWords is the size of the reference loop's table (64 KiB): like the
// simulator's working set, it stays in the first two cache levels.
const refWords = 1 << 13

var (
	refTable []uint64
	refSink  atomic.Uint64
)

// reference runs the fixed loop — dependent loads over refTable feeding
// data-dependent branches and integer arithmetic — on two goroutines at
// once, as many as the workloads keep busy, and returns its duration in
// seconds.
func reference() float64 {
	if refTable == nil {
		refTable = make([]uint64, refWords)
		x := uint64(0x9e3779b97f4a7c15)
		for i := range refTable {
			x += 0x9e3779b97f4a7c15
			z := (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
			refTable[i] = z ^ (z >> 31)
		}
	}
	var wg sync.WaitGroup
	start := time.Now()
	for g := uint64(1); g <= 2; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x, acc := g, uint64(0)
			for i := uint64(0); i < 4_000_000; i++ {
				v := refTable[x&(refWords-1)]
				switch v & 3 {
				case 0:
					acc += v >> 7
				case 1:
					acc ^= v * 31
				case 2:
					acc = acc<<1 | acc>>63
				default:
					acc -= v
				}
				x = v ^ acc + i
			}
			refSink.Add(acc)
		}()
	}
	wg.Wait()
	return time.Since(start).Seconds()
}

// machine collects a run's reference-loop samples.
type machine struct{ refs []float64 }

// sample times the reference loop n times.
func (m *machine) sample(n int) {
	for i := 0; i < n; i++ {
		m.refs = append(m.refs, reference())
	}
}

// scale brings times measured in the run to the nominal machine speed.
func (m *machine) scale() float64 {
	return refNominalS / median(quietest(m.refs))
}

// units runs fn for at least minUnits units and until the deadline,
// sampling the peak heap of each unit.
func units(deadline time.Time, out *outcome, fn func(i int) error) error {
	hw := startHeapWatch()
	defer hw.close()
	for i := 0; i < minUnits || time.Now().Before(deadline); i++ {
		hw.take()
		if err := fn(i); err != nil {
			return err
		}
		out.peakHeapMB = append(out.peakHeapMB, hw.take())
	}
	return nil
}

// accuracy compares sampled estimates with exact results of the same jobs:
// the mean |IPC_sampled/IPC_exact - 1| in percent, and the fraction of
// jobs whose exact IPC lies inside the sampled 95% confidence interval.
func accuracy(sampled []sim.Result, exactIPC []float64) (errPct, coverage float64, err error) {
	if len(sampled) != len(exactIPC) || len(sampled) == 0 {
		return 0, 0, fmt.Errorf("accuracy: %d sampled results against %d exact", len(sampled), len(exactIPC))
	}
	var sumErr float64
	covered := 0
	for i, r := range sampled {
		if r.Sampled == nil {
			return 0, 0, fmt.Errorf("accuracy: result %d is not a sampled estimate", i)
		}
		exact, est := exactIPC[i], r.IPC
		sumErr += math.Abs(est/exact - 1)
		if math.Abs(exact-est) <= r.Sampled.IPCRelCI95*est {
			covered++
		}
	}
	n := float64(len(sampled))
	return 100 * sumErr / n, float64(covered) / n, nil
}

// quietest returns the fastest quarter of xs (at least one), ascending.
func quietest(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[:max(1, (len(s)+3)/4)]
}

// requestLog records the requests of an in-process workload by kind. A
// request is one lab submission: a paper figure, or the whole stress grid.
// Every pass makes one request of each kind.
type requestLog struct {
	machine
	kinds []string
	secs  map[string][]float64 // kind → each pass's duration
}

func (l *requestLog) add(kind string, d time.Duration) {
	if l.secs == nil {
		l.secs = map[string][]float64{}
	}
	if _, ok := l.secs[kind]; !ok {
		l.kinds = append(l.kinds, kind)
	}
	l.secs[kind] = append(l.secs[kind], d.Seconds())
}

// report adds the timing metrics of a typical pass at the nominal machine
// speed. Each kind's cost is its median over the passes; wall_s is the sum
// of those costs; p50_ms and p99_ms are percentiles over them, the request
// latencies of a typical pass; req_per_s is requests per second of wall_s.
func (l *requestLog) report(out *outcome) {
	scale := l.scale()
	var wall float64
	var lats []float64
	for _, k := range l.kinds {
		c := scale * median(l.secs[k])
		wall += c
		lats = append(lats, 1000*c)
		out.notes = append(out.notes, fmt.Sprintf("%s seconds per pass: %.4f", k, l.secs[k]))
	}
	out.notes = append(out.notes, fmt.Sprintf("reference seconds: %.5f; scale %.4f", l.refs, scale))
	out.metrics = append(out.metrics,
		metric{"wall_s", wall, "s"},
		metric{"p50_ms", quantile(lats, 0.50), "ms"},
		metric{"p99_ms", quantile(lats, 0.99), "ms"},
		metric{"req_per_s", float64(len(l.kinds)) / wall, "1/s"},
	)
	out.unitCostS = wall
}

// roundLog records each cluster round's wall time and the latencies of
// the requests it served.
type roundLog struct {
	machine
	walls []float64   // seconds
	lats  [][]float64 // milliseconds, per round
}

func (l *roundLog) add(wall float64, lats []float64) {
	l.walls = append(l.walls, wall)
	l.lats = append(l.lats, lats)
}

// report adds the timing metrics over all rounds at the nominal machine
// speed: the median round wall time, request latency percentiles, and
// requests per second of round time.
func (l *roundLog) report(out *outcome) {
	scale := l.scale()
	var walls, lats []float64
	var busy float64
	for i, w := range l.walls {
		walls = append(walls, scale*w)
		for _, x := range l.lats[i] {
			lats = append(lats, scale*x)
		}
		busy += scale * w
	}
	out.metrics = append(out.metrics,
		metric{"wall_s", median(walls), "s"},
		metric{"p50_ms", quantile(lats, 0.50), "ms"},
		metric{"p99_ms", quantile(lats, 0.99), "ms"},
		metric{"req_per_s", float64(len(lats)) / busy, "1/s"},
	)
	out.unitCostS = median(walls)
	out.notes = append(out.notes,
		fmt.Sprintf("wall_s per round: %.4f", l.walls),
		fmt.Sprintf("reference seconds: %.5f; scale %.4f", l.refs, scale),
		fmt.Sprintf("latency ms p10 p50 p90 p95 p99 over %d requests: %.3f %.3f %.3f %.3f %.3f", len(lats), quantile(lats, .1), quantile(lats, .5), quantile(lats, .9), quantile(lats, .95), quantile(lats, .99)))
}
