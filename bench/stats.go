package main

import (
	"fmt"
	"io"
	"sort"
	"time"
)

// opKind names one request type of a workload's mix.
type opKind int

const (
	opJoin    opKind = iota // full-pair intersection join
	opCount                 // intersection join, pairs discarded
	opJoinPar               // parallel intersection join
	opWithin                // within-distance join
	opKNN                   // k-nearest-neighbours join
	opUpdate                // POST /update of one churn batch
	opRound                 // POST /round
	numOps
)

var opNames = [numOps]string{"join", "count", "join_par", "within", "knn", "update", "round"}

func (k opKind) String() string { return opNames[k] }

// ledger collects what one run measured: per-op latencies of verified
// replies, attempts and failures, and the named metrics printed at the end.
type ledger struct {
	// lat and ttfb hold the latencies of verified replies divided by the
	// host's slowdown at the time (see refkernel.go), raw the latencies as
	// the clock read them.
	lat       [numOps][]time.Duration
	ttfb      [numOps][]time.Duration
	raw       [numOps][]timed
	speed     *speedLog
	attempted int
	failed    int
	// openWindow is the window length of an open-loop run (0 in a closed
	// loop), the denominator of its throughput.
	openWindow time.Duration
	failures   []string // first few failure descriptions, for the log

	// A traced run records client-boundary spans on every other cycle of the
	// op mix; the full join's latencies are kept apart by that, so that the
	// two halves' medians give the tracing overhead.  verify is how long the
	// off-clock check of each reply took.
	tr                    *tracer
	tracedJoin, plainJoin []time.Duration
	verify                []time.Duration

	names  []string
	values map[string]metricValue
	notes  []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func newLedger() *ledger {
	return &ledger{values: make(map[string]metricValue), speed: &speedLog{k: newRefKernel()}}
}

// timed is one verified reply as the clock read it.
type timed struct {
	start     time.Time
	lat, ttfb time.Duration
}

// ok records one verified-correct reply to a request sent (or due) at start.
func (l *ledger) ok(k opKind, start time.Time, lat, ttfb time.Duration) {
	l.attempted++
	l.raw[k] = append(l.raw[k], timed{start, lat, ttfb})
}

// normalise fills lat and ttfb from raw once the run's reference samples are
// all in: each duration divided by the slowdown around its time.
func (l *ledger) normalise() {
	for k := range l.raw {
		l.lat[k], l.ttfb[k] = l.lat[k][:0], l.ttfb[k][:0]
		for _, t := range l.raw[k] {
			f := l.speed.around(t.start, t.start.Add(t.lat))
			l.lat[k] = append(l.lat[k], time.Duration(float64(t.lat)/f))
			if t.ttfb > 0 {
				l.ttfb[k] = append(l.ttfb[k], time.Duration(float64(t.ttfb)/f))
			}
		}
	}
}

// rawMedian is the median latency of op k as the clock read it.
func (l *ledger) rawMedian(k opKind) time.Duration {
	d := make([]time.Duration, len(l.raw[k]))
	for i, t := range l.raw[k] {
		d[i] = t.lat
	}
	return percentile(d, 0.5)
}

// tracedCycle reports whether request i of a mix of the given cycle length
// falls in a cycle that records spans.
func (l *ledger) tracedCycle(i, cycleLen int) bool {
	return l.tr != nil && (i/cycleLen)%2 == 1
}

// okRequest records one verified reply to request id that was sent (or due)
// at start and checked by `checked`, with its client-boundary spans when
// traced is set.
func (l *ledger) okRequest(id int, traced bool, k opKind, start time.Time, lat, ttfb time.Duration, checked time.Time) {
	l.ok(k, start, lat, ttfb)
	end := start.Add(lat)
	l.verify = append(l.verify, checked.Sub(end))
	if l.tr == nil {
		return
	}
	if k == opJoin {
		if traced {
			l.tracedJoin = append(l.tracedJoin, lat)
		} else {
			l.plainJoin = append(l.plainJoin, lat)
		}
	}
	if !traced {
		return
	}
	name := "client.request." + k.String()
	l.tr.add(name, "", id, start, end)
	if ttfb > 0 {
		l.tr.add("client.ttfb", name, id, start, start.Add(ttfb))
		l.tr.add("client.body", name, id, start.Add(ttfb), end)
	}
	l.tr.add("client.verify", name, id, end, checked)
}

// fail records one attempted op that did not produce a verified, timely
// reply: wrong answer, non-2xx, shed, transport error or late.
func (l *ledger) fail(k opKind, format string, args ...any) {
	l.attempted++
	l.failed++
	if len(l.failures) < 8 {
		l.failures = append(l.failures, k.String()+": "+fmt.Sprintf(format, args...))
	}
}

// set records a named metric; setting a name twice keeps the last value.
func (l *ledger) set(name string, v float64, unit string) {
	if _, seen := l.values[name]; !seen {
		l.names = append(l.names, name)
	}
	l.values[name] = metricValue{Value: v, Unit: unit}
}

func (l *ledger) note(format string, args ...any) {
	l.notes = append(l.notes, fmt.Sprintf(format, args...))
}

// print writes the notes and every metric by name with its unit.
func (l *ledger) print(w io.Writer) {
	for _, n := range l.notes {
		fmt.Fprintln(w, "#", n)
	}
	for _, f := range l.failures {
		fmt.Fprintln(w, "# FAILED", f)
	}
	names := append([]string(nil), l.names...)
	sort.Strings(names)
	for _, n := range names {
		v := l.values[n]
		fmt.Fprintf(w, "%-40s %14.6g %s\n", n, v.Value, v.Unit)
	}
}

// percentile returns the p-quantile (0 < p <= 1) of d by the nearest-rank
// rule, or 0 for an empty sample.  d is sorted in place.
func percentile(d []time.Duration, p float64) time.Duration {
	if len(d) == 0 {
		return 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := int(p*float64(len(d))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(d) {
		i = len(d) - 1
	}
	return d[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median of a float sample (0 when empty); v is sorted in place.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 1 {
		return v[n/2]
	} else {
		return (v[n/2-1] + v[n/2]) / 2
	}
}

// tail returns the highest percentile of d that still has at least ten
// samples beyond it, and that percentile's value: the honest tail for the
// sample size at hand (p99 needs a thousand samples, p90 a hundred).
func tail(d []time.Duration) (pct float64, v time.Duration) {
	if len(d) < 20 {
		return 0, 0
	}
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
	i := len(d) - 11
	return 100 * float64(i+1) / float64(len(d)), d[i]
}

func sumDur(d []time.Duration) time.Duration {
	var s time.Duration
	for _, x := range d {
		s += x
	}
	return s
}
