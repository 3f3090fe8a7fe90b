package main

import (
	"context"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
)

// sendFunc performs request i of a phase and reports whether it succeeded
// (a 2xx answer; correctness is checked after the phase).
type sendFunc func(ctx context.Context, i int) bool

// phaseResult is what one load phase measured.
type phaseResult struct {
	lat       []float64 // ms, per completed request
	lag       []float64 // ms the generator started a request late (open loop)
	attempted int
	failed    int
	elapsed   time.Duration
	grows     bool // backlog of due-but-unsent requests grew (open loop)
}

func (p *phaseResult) rate() float64 {
	return float64(p.attempted-p.failed) / p.elapsed.Seconds()
}

// backlogSample is the number of requests due but not yet sent at offset t.
type backlogSample struct {
	t time.Duration
	n int
}

// backlogGrows reports whether a phase's backlog trended upward: the median
// backlog over the last quarter of the samples exceeds the median over the
// first quarter by more than slack requests. A system keeping up shows a
// backlog that fluctuates around a level — a stall raises it briefly, and
// medians ignore that — while one that does not keep up falls further
// behind for as long as the phase lasts.
func backlogGrows(samples []backlogSample, slack float64) bool {
	q := len(samples) / 4
	if q == 0 {
		return false
	}
	med := func(s []backlogSample) float64 {
		ns := make([]float64, len(s))
		for i, x := range s {
			ns[i] = float64(x.n)
		}
		return median(ns)
	}
	return med(samples[len(samples)-q:])-med(samples[:q]) > slack
}

// growthSlack is the backlog rise tolerated before a phase of n requests
// over `workers` connections counts as falling behind: twice the
// connections, or 2% of the phase, whichever is larger.
func growthSlack(n, workers int) float64 {
	return max(2*float64(workers), 0.02*float64(n))
}

// runOpen drives an open-loop phase: request i is due at start+due[i] and is
// timed from that moment, not from when a connection became free, so a stall
// charges its wait to every request queued behind it. One dispatcher
// releases requests at their due times; workers goroutines, one connection
// each, send them in due order. Lag is how late a request was sent when a
// worker was already free for it — the generator's own lateness, as opposed
// to the backlog the system under test builds.
func runOpen(ctx context.Context, due []time.Duration, workers int, send sendFunc) phaseResult {
	n := len(due)
	lat := make([]float64, n)
	lag := make([]float64, n)
	ok := make([]bool, n)
	var started atomic.Int64
	// Sized to the phase so the dispatcher never blocks: a backlog is the
	// system's to build, not the generator's.
	queue := make(chan int, n)
	start := time.Now()

	stop := make(chan struct{})
	var samples []backlogSample
	var bg sync.WaitGroup
	bg.Add(2)
	go func() {
		defer bg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-stop:
				return
			case <-tick.C:
				t := time.Since(start)
				dueNow := sort.Search(n, func(i int) bool { return due[i] > t })
				samples = append(samples, backlogSample{t, dueNow - int(started.Load())})
			}
		}
	}()
	go func() {
		defer bg.Done()
		defer close(queue)
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
		woke := start
		for i := 0; i < n && ctx.Err() == nil; {
			sleepUntil(maxTime(start.Add(due[i]), woke.Add(dispatchQuantum)))
			woke = time.Now()
			for ; i < n && !start.Add(due[i]).After(woke); i++ {
				queue <- i
			}
		}
	}()

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			free := time.Now()
			for i := range queue {
				at := start.Add(due[i])
				sent := time.Now()
				started.Add(1)
				ready := at
				if free.After(ready) {
					ready = free
				}
				lag[i] = ms(sent.Sub(ready))
				ok[i] = send(ctx, i)
				free = time.Now()
				lat[i] = ms(free.Sub(at))
			}
		}()
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), attempted: int(started.Load())}
	close(stop)
	bg.Wait()
	for i := 0; i < res.attempted; i++ {
		if !ok[i] {
			res.failed++
			continue
		}
		res.lat = append(res.lat, lat[i])
	}
	res.lag = lag[:res.attempted]
	if ctx.Err() == nil && n > 0 {
		// Only the sending window counts: after the last arrival the backlog
		// can only drain.
		last := due[n-1]
		cut := sort.Search(len(samples), func(i int) bool { return samples[i].t > last })
		res.grows = backlogGrows(samples[:cut], growthSlack(n, workers))
	}
	return res
}

// dispatchQuantum is the shortest sleep of the open-loop dispatcher: after
// each wake-up it releases every request then due. On a virtual machine
// every timer wake-up costs a trip through the hypervisor, and at several
// thousand arrivals a second one wake-up per request competes with the
// system under test for its CPUs; the quantum bounds the wake-ups, at the
// price of sending a request up to this late (counted in its latency and in
// the generator's lag).
const dispatchQuantum = 250 * time.Microsecond

func maxTime(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// setTimerSlack sets the calling thread's timer slack to 1ns
// (PR_SET_TIMERSLACK), so its nanosleeps wake on time; best effort.
func setTimerSlack() { _, _, _ = syscall.RawSyscall(syscall.SYS_PRCTL, 29, 1, 0) }

// sleepUntil waits until t with nanosleep. The Go runtime's timers fire up
// to a millisecond late on a shared host, which would swamp sub-millisecond
// latencies measured from due times.
func sleepUntil(t time.Time) {
	for {
		d := time.Until(t)
		if d <= 0 {
			return
		}
		ts := syscall.NsecToTimespec(int64(d))
		_ = syscall.Nanosleep(&ts, nil) // EINTR: the loop sleeps the rest
	}
}

// runClosed drives a closed-loop phase: each of workers clients sends its
// next request as soon as the previous one answers, until dur has passed or
// the limit requests have been taken. Requests are numbered in the order
// they are taken, and latencies are reported in that order.
func runClosed(ctx context.Context, workers int, dur time.Duration, limit int, send sendFunc) phaseResult {
	var next atomic.Int64
	lat := make([]float64, limit)
	ok := make([]bool, limit)
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) && ctx.Err() == nil {
				i := int(next.Add(1) - 1)
				if i >= limit {
					return
				}
				t0 := time.Now()
				ok[i] = send(ctx, i)
				lat[i] = ms(time.Since(t0))
			}
		}()
	}
	wg.Wait()
	res := phaseResult{elapsed: time.Since(start), attempted: min(int(next.Load()), limit)}
	for i := 0; i < res.attempted; i++ {
		if !ok[i] {
			res.failed++
			continue
		}
		res.lat = append(res.lat, lat[i])
	}
	return res
}

// trial is one open-loop run of the max-rate search at an offered rate,
// with the share of CPU time the hypervisor stole from the machine while it
// ran. A stolen trial lost markedly more than the median closed-loop slice
// so far: a stretch of steal in the run, not the run's steady level.
type trial struct {
	Share  float64   `json:"capacity_share"` // Rate over the closed-loop capacity so far
	Rate   float64   `json:"rate_rps"`
	P99    float64   `json:"p99_ms"`
	Tails  []float64 `json:"window_p99_ms"`
	N      int       `json:"samples"`
	Grows  bool      `json:"backlog_grows"`
	Fail   int       `json:"failed"`
	Steal  float64   `json:"steal_share"`
	Stolen bool      `json:"stolen"`
}

// newTrial records an open-loop phase at rate, share of the capacity, as a
// trial.
func newTrial(share, rate float64, res phaseResult, steal float64, stolen bool) trial {
	s, _ := summarize(res.lat)
	tails := s.Tails
	if len(tails) == 0 {
		tails = []float64{s.P99} // too short for a window: its own tail
	}
	return trial{Share: share, Rate: rate, P99: s.P99, Tails: tails, N: s.N, Grows: res.grows, Fail: res.failed, Steal: steal, Stolen: stolen}
}

// trialStealSlack is how much more of its CPU time a max-rate trial may
// lose to the hypervisor than the median closed-loop slice before it is
// stolen.
const trialStealSlack = 0.02

// pass reports whether a trial met the limit: its p99 at most limitMs,
// its backlog not growing and no request failed.
func (t trial) pass(limitMs float64) bool {
	return !t.Grows && t.Fail == 0 && t.P99 <= limitMs
}

// rateLevel is the pooled outcome of the trials at one share of the
// capacity: their mean offered rate, how many of them failed the limit,
// and the failing share after the monotone fit across levels. Stolen
// trials are left out unless every trial at the share was stolen.
type rateLevel struct {
	Share     float64 `json:"capacity_share"`
	Rate      float64 `json:"rate_rps"`
	Trials    int     `json:"trials_counted"`
	Failed    int     `json:"trials_failed"`
	FailShare float64 `json:"fitted_fail_share"`
}

// maxRateSearch finds the highest offered open-loop rate whose p99 meets a
// latency limit without the backlog growing. Trials run at a few fixed
// shares of the closed-loop capacity measured so far, interleaved through
// the run, so that they follow the host's drift; each share's trials are
// pooled into a rateLevel, and the fixed-rate phase is the lowest level.
// Near saturation a short trial passes or fails almost by chance, so no
// single trial decides: the share of failing trials is fitted as a
// non-decreasing function of the rate (pool-adjacent-violators, weighted
// by trial count), and the estimate is the rate where the fit reaches one
// half, interpolated linearly between the levels around it.
type maxRateSearch struct {
	LimitMs  float64     `json:"limit_ms"`
	FloorP99 float64     `json:"fixed_rate_p99_ms"`
	Floor    float64     `json:"fixed_rate_rps"`
	Levels   []rateLevel `json:"levels"`
	Trials   []trial     `json:"trials"`
}

// levels pools the trials by share, lowest first, starting with the
// fixed-rate phase, and fits their failing shares.
func (m *maxRateSearch) levels() []rateLevel {
	byShare := map[float64][]trial{}
	for _, t := range m.Trials {
		byShare[t.Share] = append(byShare[t.Share], t)
	}
	floor := rateLevel{Rate: m.Floor, Trials: 1}
	if m.FloorP99 > m.LimitMs {
		floor.Failed = 1
	}
	out := []rateLevel{floor}
	for share, ts := range byShare {
		var counted []trial
		for _, t := range ts {
			if !t.Stolen {
				counted = append(counted, t)
			}
		}
		if len(counted) == 0 {
			counted = ts
		}
		l := rateLevel{Share: share, Trials: len(counted)}
		for _, t := range counted {
			l.Rate += t.Rate / float64(len(counted))
			if !t.pass(m.LimitMs) {
				l.Failed++
			}
		}
		out = append(out, l)
	}
	sort.Slice(out, func(a, b int) bool { return out[a].Share < out[b].Share })
	fitMonotone(out)
	return out
}

// fitMonotone sets each level's FailShare to the weighted least-squares
// non-decreasing fit of its failing share (pool-adjacent-violators).
func fitMonotone(lv []rateLevel) {
	type block struct {
		mean, weight float64
		n            int
	}
	var bs []block
	for _, l := range lv {
		bs = append(bs, block{float64(l.Failed) / float64(l.Trials), float64(l.Trials), 1})
		for len(bs) > 1 && bs[len(bs)-2].mean > bs[len(bs)-1].mean {
			a, b := bs[len(bs)-2], bs[len(bs)-1]
			w := a.weight + b.weight
			bs = append(bs[:len(bs)-2], block{(a.mean*a.weight + b.mean*b.weight) / w, w, a.n + b.n})
		}
	}
	i := 0
	for _, b := range bs {
		for k := 0; k < b.n; k++ {
			lv[i].FailShare = b.mean
			i++
		}
	}
}

// estimate computes the levels (kept for the result file) and the rate at
// which the fitted failing share reaches one half: the fixed rate when the
// fixed-rate phase itself fails, the highest level's rate when the fit
// stays below one half.
func (m *maxRateSearch) estimate() float64 {
	m.Levels = m.levels()
	lv := m.Levels
	for i, hi := range lv {
		if hi.FailShare < 0.5 {
			continue
		}
		if i == 0 {
			return hi.Rate
		}
		lo := lv[i-1]
		return lo.Rate + (0.5-lo.FailShare)/(hi.FailShare-lo.FailShare)*(hi.Rate-lo.Rate)
	}
	return lv[len(lv)-1].Rate
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// slice is one stretch of a sliced closed-loop phase, with the share of CPU
// time the hypervisor stole from the machine while it ran.
type slice struct {
	Steal float64        `json:"steal_share"`
	Lat   latencySummary `json:"latency"`
	Rate  float64        `json:"completed_rps"`
	Calm  bool           `json:"counted"` // within stealSlack of the calmest slice

	res phaseResult
}

// stealSlack is how much more of its CPU time a slice may have lost to the
// hypervisor than the least-stolen slice and still count.
const stealSlack = 0.01

// calmSummary marks the slices whose stolen CPU share is within stealSlack
// of the least-stolen slice's, and pools them: their latencies, in order,
// summarized as one phase, and their completions over their time. When
// those hold fewer samples than a p99 needs, the next-calmest slices join
// them until they do. On a virtual machine a vCPU that another tenant holds
// stretches whatever request runs on it, so a stretch with markedly more
// steal measures the host more than the program; every slice stays in the
// result file with its steal.
func calmSummary(slices []slice) (latencySummary, float64) {
	order := make([]int, len(slices))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return slices[order[a]].Steal < slices[order[b]].Steal })
	least, n := slices[order[0]].Steal, 0
	for _, i := range order {
		slices[i].Calm = slices[i].Steal <= least+stealSlack || n < p99Window
		if slices[i].Calm {
			n += len(slices[i].res.lat)
		}
	}
	var lat []float64
	var done int
	var elapsed time.Duration
	for i := range slices {
		if !slices[i].Calm {
			continue
		}
		r := &slices[i].res
		lat = append(lat, r.lat...)
		done += r.attempted - r.failed
		elapsed += r.elapsed
	}
	sum, _ := summarize(lat)
	return sum, float64(done) / elapsed.Seconds()
}

// satSlices is how many stretches plan-batch's closed loop and replicate's
// evaluations are measured in.
const satSlices = 8

// runSlices measures a closed loop in n slices, slice j run by
// measure(j), reading the host's stolen CPU share around each, and pools the
// calm ones (calmSummary) into the latency summary and completion rate it
// returns. Slices too short together for a p99 make the run invalid. When after
// is not nil it runs after each slice, given the slices so far: other
// phases interleaved with the slices share the host's calm and stolen
// stretches with them, and the slices sample the whole run rather than one
// stretch of it.
func runSlices(name string, n int, measure func(j int) (phaseResult, error), after func(done []slice) error) ([]slice, latencySummary, float64, error) {
	slices := make([]slice, n)
	for j := range slices {
		h0 := readHostCPU()
		res, err := measure(j)
		if err != nil {
			return nil, latencySummary{}, 0, err
		}
		lat, _ := summarize(res.lat)
		slices[j] = slice{Steal: stealShare(h0, readHostCPU()), Lat: lat, Rate: res.rate(), res: res}
		if after != nil {
			if err := after(slices[:j+1]); err != nil {
				return nil, latencySummary{}, 0, err
			}
		}
	}
	lat, rate := calmSummary(slices)
	if lat.TailQ != 0.99 {
		return nil, lat, 0, invalidf("%s: the slices hold %d samples, too few for a p99", name, lat.N)
	}
	return slices, lat, rate, nil
}
