package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/rtree"
)

// The reference kernel.  This sandbox shares its host: the same join takes
// 40 ms in one minute and 55 ms in the next, for minutes at a time, because
// a neighbour is using the shared cache.  A raw latency therefore measures
// the code and the neighbour together, and two runs of one commit differ by
// more than most changes are worth.  The benchmark separates the two with a
// control measurement: a fixed piece of its own code — the oracle's grid
// join over a fixed, seed-independent input, the same kind of work the
// system does — is timed beside every op, and every latency is divided by
// the slowdown that measurement shows:
//
//	reported = measured x (refNominal / reference kernel's time just then)
//
// The kernel lives in this directory, which a change that claims a gain may
// not edit, so it is the same on both sides of every comparison.  On this
// sandbox's kind of host the factor is near 1 and the reported number near
// the measured one; on other hardware every reported number is scaled by one
// constant.  The raw medians are printed beside the reported ones.
type refKernel struct {
	g *grid
	r []rtree.Item
}

// refNominal is the kernel's usual time inside a run on this sandbox's host,
// so that a reported number is close to the measured one here.
const refNominal = 10 * time.Millisecond

func newRefKernel() *refKernel {
	rng := rand.New(rand.NewSource(0x7265666b)) // fixed: the kernel's work never varies
	s := uniformRelation(rng, 60000, 0.01, 0)
	return &refKernel{g: newGrid(s), r: uniformRelation(rng, 6000, 0.01, 0)}
}

// run executes the kernel once and returns the slowdown factor it shows.
func (k *refKernel) run() float64 {
	start := time.Now()
	var a answer
	for _, it := range k.r {
		a.add(k.g.probe(it, 0))
	}
	sink += a.count
	return float64(time.Since(start)) / float64(refNominal)
}

// speedLog is the record of the kernel's samples over a run.  One sample is
// as noisy as one op, and the slowdown it is meant to follow lasts seconds
// to minutes, so a latency is divided by the median of the samples taken
// within speedHorizon of it, never by a single one.
type speedLog struct {
	k      *refKernel
	mu     sync.Mutex
	at     []time.Time
	factor []float64
}

const speedHorizon = 3 * time.Second

// sample runs the kernel once and records what it shows.
func (s *speedLog) sample() {
	at := time.Now()
	f := s.k.run()
	s.mu.Lock()
	s.at = append(s.at, at)
	s.factor = append(s.factor, f)
	s.mu.Unlock()
}

// every samples on a ticker until stop is closed: the open loop, whose
// requests are sent on a schedule, leaves no gap to sample in.
func (s *speedLog) every(period time.Duration, stop <-chan struct{}) {
	t := time.NewTicker(period)
	defer t.Stop()
	for {
		s.sample()
		select {
		case <-stop:
			return
		case <-t.C:
		}
	}
}

// around returns the slowdown factor for something that ran from `from` to
// `to`: the median of the samples within speedHorizon of that interval (1 if
// there are none).
func (s *speedLog) around(from, to time.Time) float64 {
	from, to = from.Add(-speedHorizon), to.Add(speedHorizon)
	s.mu.Lock()
	defer s.mu.Unlock()
	var near []float64
	for i, at := range s.at {
		if !at.Before(from) && !at.After(to) {
			near = append(near, s.factor[i])
		}
	}
	if len(near) == 0 {
		return 1
	}
	return median(near)
}

// timedSetup runs one set-up of the system under test and returns what it
// built and how long it took in seconds, divided by the slowdown the
// reference kernel showed just before and just after it.
func timedSetupOf[T any](l *ledger, setup func() (T, error)) (T, float64, error) {
	for i := 0; i < 3; i++ {
		l.speed.sample()
	}
	start := time.Now()
	v, err := setup()
	end := time.Now()
	for i := 0; i < 3; i++ {
		l.speed.sample()
	}
	return v, end.Sub(start).Seconds() / l.speed.around(start, end), err
}
