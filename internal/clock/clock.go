// Package clock provides the multiple-clock-domain machinery at the heart
// of the paper's proposal: independent clock domains simulated on a shared
// picosecond timeline, with mode-switchable periods (the paper derives both
// back-end speeds by dividing one fast master clock, §3) and time-stamped
// queues that charge the synchronization latency of cross-domain FIFOs
// (§3.2).
package clock

import "fmt"

// Domain is one synchronous clock island (e.g. the pipeline front-end or
// the execution back-end). A domain delivers rising edges every period
// picoseconds while ungated.
type Domain struct {
	name   string
	period int64
	next   int64 // time of the next rising edge
	gated  bool
	// Cycles counts delivered edges; the power model charges clock-grid
	// energy per edge.
	Cycles uint64
	// GatedCycles counts edges suppressed while gated (for reporting).
	GatedCycles uint64
}

// NewDomain creates a domain whose first edge falls at start+period.
func NewDomain(name string, periodPS, start int64) *Domain {
	d := &Domain{name: name}
	d.Reset(periodPS, start)
	return d
}

// Reset returns the domain to the state NewDomain(name, periodPS, start)
// builds, keeping its name.
func (d *Domain) Reset(periodPS, start int64) {
	if periodPS <= 0 {
		panic(fmt.Sprintf("clock: domain %q: period %d must be positive", d.name, periodPS))
	}
	*d = Domain{name: d.name, period: periodPS, next: start + periodPS}
}

// Period returns the current period in picoseconds.
func (d *Domain) Period() int64 { return d.period }

// NextEdge returns the time of the next rising edge.
func (d *Domain) NextEdge() int64 { return d.next }

// Gated reports whether the domain is clock-gated.
func (d *Domain) Gated() bool { return d.gated }

// Tick consumes the pending edge, scheduling the next one.
func (d *Domain) Tick() {
	if d.gated {
		d.GatedCycles++
	} else {
		d.Cycles++
	}
	d.next += d.period
}

// SetPeriod changes the period, taking effect from the next edge onward.
// now anchors the next edge so period changes never move edges into the
// past (the paper's clock divider switches between divisions of one master
// clock with negligible overhead).
func (d *Domain) SetPeriod(periodPS, now int64) {
	if periodPS <= 0 {
		panic(fmt.Sprintf("clock: domain %q: period %d must be positive", d.name, periodPS))
	}
	d.period = periodPS
	d.next = now + periodPS
}

// Gate suppresses the domain's activity: edges keep their cadence (the PLL
// keeps running) but count as gated, so the power model can charge only
// leakage for the island.
func (d *Domain) Gate() { d.gated = true }

// Ungate re-enables the domain.
func (d *Domain) Ungate() { d.gated = false }

// System schedules a set of domains on one shared timeline.
type System struct {
	domains []*Domain
	now     int64
	fired   []*Domain // reused result buffer for Advance
}

// NewSystem builds a system over the given domains.
func NewSystem(domains ...*Domain) *System {
	return &System{domains: domains}
}

// Reset moves the timeline back to zero. Its domains are reset by their
// owner.
func (s *System) Reset() { s.now = 0 }

// Now returns the current simulation time in picoseconds.
func (s *System) Now() int64 { return s.now }

// Advance moves time to the earliest pending edge and returns every domain
// with an edge at that instant (already ticked). Gated domains still tick —
// their edges exist but are marked gated — so that re-enabling a domain
// keeps a sane phase. The returned slice is reused by the next Advance
// call; callers must not retain it.
func (s *System) Advance() (int64, []*Domain) {
	if len(s.domains) == 0 {
		return s.now, nil
	}
	t := s.domains[0].NextEdge()
	for _, d := range s.domains[1:] {
		if e := d.NextEdge(); e < t {
			t = e
		}
	}
	fired := s.fired[:0]
	for _, d := range s.domains {
		if d.NextEdge() == t {
			d.Tick()
			fired = append(fired, d)
		}
	}
	s.fired = fired
	s.now = t
	return t, fired
}
