// Package control closes the loop on the serving layer's batching policy.
// The static MaxBatch/MaxDelay pair of batch.Config treats every plan
// fingerprint the same: a cold structure pays the full coalesce delay for a
// batch of one, while a hot structure may launch at a size far below the
// lane sweet spot because the window was tuned for average traffic. The
// Controller replaces that pair with a per-fingerprint decision driven by
// an EWMA of the key's arrival rate and the launch outcomes the coalescer
// reports back:
//
//   - cold keys (expected lane-mates within the window < HotLanes) launch
//     immediately — no parked delay for traffic that will never coalesce;
//   - hot keys grow their window toward the lane cap: the delay is the time
//     the current rate needs to fill MaxBatch lanes, clamped to MaxDelay,
//     so delay is shed automatically as load lightens;
//   - launch feedback trims the estimate: a timeout launch that caught
//     almost nothing decays the rate (the key is colder than measured), a
//     full launch nudges it up.
//
// Decisions are exported as control/* counters and the clock is injectable,
// so the policy is deterministic under test.
package control

import (
	"sync"
	"time"

	"lbmm/internal/batch"
	"lbmm/internal/obsv"
)

// Counter names published by the controller (gauges noted).
const (
	MetricImmediate = "control/immediate" // cold decisions: launch alone, now
	MetricBatched   = "control/batched"   // hot decisions: open/extend a window
	MetricGrow      = "control/grow"      // full launches that raised a key's rate estimate
	MetricShrink    = "control/shrink"    // near-empty timeout launches that decayed it
	MetricKeys      = "control/keys"      // gauge: fingerprints with live state
	MetricEvicted   = "control/evicted"   // key states dropped at the MaxKeys bound
)

// Config tunes a Controller. The zero value of every field gets a sensible
// default.
type Config struct {
	// MaxBatch is the lane cap a hot key grows toward (default 16 — the
	// measured per-lane throughput sweet spot, BenchmarkMultiplyBatch in
	// internal/core).
	MaxBatch int
	// MaxDelay is the ceiling on any coalesce window (default 2ms).
	MaxDelay time.Duration
	// HotLanes is how many lane-mates must be expected inside a MaxDelay
	// window before a key counts as hot (default 2: a window that cannot
	// even pair requests is pure added latency).
	HotLanes float64
	// Alpha is the EWMA weight of the newest inter-arrival gap (default
	// 0.3). Higher values track bursts faster; lower values smooth them.
	Alpha float64
	// ColdAfter forgets a key's rate estimate when its last arrival is older
	// than this (default 10×MaxDelay... floored at 1s): yesterday's hot
	// structure must re-earn its window.
	ColdAfter time.Duration
	// MaxKeys bounds the per-fingerprint state (default 4096). Beyond it
	// the stalest key is evicted — the working set a serving process batches
	// for is the plan cache's, which is far smaller.
	MaxKeys int
	// Clock supplies the time (default time.Now). Tests inject a manual
	// clock so decisions are a pure function of the scripted arrivals.
	Clock func() time.Time
	// Metrics receives the control/* counters; a fresh set when nil.
	Metrics *obsv.CounterSet
}

func (c Config) withDefaults() Config {
	if c.MaxBatch <= 1 {
		c.MaxBatch = 16
	}
	if c.MaxDelay <= 0 {
		c.MaxDelay = 2 * time.Millisecond
	}
	if c.HotLanes <= 0 {
		c.HotLanes = 2
	}
	if c.Alpha <= 0 || c.Alpha > 1 {
		c.Alpha = 0.3
	}
	if c.ColdAfter <= 0 {
		c.ColdAfter = 10 * c.MaxDelay
		if c.ColdAfter < time.Second {
			c.ColdAfter = time.Second
		}
	}
	if c.MaxKeys <= 0 {
		c.MaxKeys = 4096
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Metrics == nil {
		c.Metrics = obsv.NewCounterSet()
	}
	return c
}

// keyState is one fingerprint's arrival model.
type keyState struct {
	last    time.Time     // previous arrival
	ewmaGap time.Duration // smoothed inter-arrival gap; 0 = no estimate yet
}

// Controller is the per-fingerprint adaptive batch policy. All methods are
// safe for concurrent use; Decide is shaped to plug straight into
// batch.Config.Decide and Observe into the launch callback.
type Controller struct {
	cfg     Config
	metrics *obsv.CounterSet

	mu   sync.Mutex
	keys map[string]*keyState
}

// New builds a controller.
func New(cfg Config) *Controller {
	cfg = cfg.withDefaults()
	return &Controller{
		cfg:     cfg,
		metrics: cfg.Metrics,
		keys:    map[string]*keyState{},
	}
}

// Decide records one arrival for the key and returns the policy governing
// it right now. The first arrival of a key — and any arrival after a
// ColdAfter silence — is cold by construction: there is no evidence a
// window would catch anything, so the lane launches immediately.
func (c *Controller) Decide(key string) batch.Policy {
	now := c.cfg.Clock()
	c.mu.Lock()
	st := c.keys[key]
	if st == nil {
		st = &keyState{last: now}
		c.evictLocked()
		c.keys[key] = st
		c.metrics.Set(MetricKeys, int64(len(c.keys)))
		c.mu.Unlock()
		c.metrics.Add(MetricImmediate, 1)
		return batch.Policy{MaxBatch: 1}
	}
	gap := now.Sub(st.last)
	st.last = now
	if gap > c.cfg.ColdAfter || st.ewmaGap > c.cfg.ColdAfter {
		// The key went quiet: restart the estimate rather than average a
		// silence into it.
		st.ewmaGap = 0
		c.mu.Unlock()
		c.metrics.Add(MetricImmediate, 1)
		return batch.Policy{MaxBatch: 1}
	}
	if st.ewmaGap == 0 {
		st.ewmaGap = gap
	} else {
		st.ewmaGap = time.Duration((1-c.cfg.Alpha)*float64(st.ewmaGap) + c.cfg.Alpha*float64(gap))
	}
	pol := c.policyLocked(st)
	c.mu.Unlock()
	if pol.MaxBatch <= 1 {
		c.metrics.Add(MetricImmediate, 1)
	} else {
		c.metrics.Add(MetricBatched, 1)
	}
	return pol
}

// policyLocked derives the policy from a key's current rate estimate.
// Caller holds the lock.
func (c *Controller) policyLocked(st *keyState) batch.Policy {
	if st.ewmaGap <= 0 {
		return batch.Policy{MaxBatch: 1}
	}
	// Lanes a full MaxDelay window is expected to catch at the current rate.
	expect := float64(c.cfg.MaxDelay) / float64(st.ewmaGap)
	if expect < c.cfg.HotLanes {
		return batch.Policy{MaxBatch: 1}
	}
	target := int(expect)
	if target > c.cfg.MaxBatch {
		target = c.cfg.MaxBatch
	}
	// The window only needs to be long enough to fill the target: under
	// heavy load the delay collapses toward target×gap, well below the
	// ceiling — light load is the only regime that waits the full MaxDelay.
	delay := time.Duration(target) * st.ewmaGap
	if delay > c.cfg.MaxDelay {
		delay = c.cfg.MaxDelay
	}
	if delay <= 0 {
		delay = c.cfg.MaxDelay
	}
	return batch.Policy{MaxBatch: target, MaxDelay: delay}
}

// Observe feeds one launch outcome back into the key's estimate: the
// coalescer reports how many lanes the group actually caught and why it
// launched. A timeout launch of a single lane means the window was armed on
// an overestimated rate — decay it so the next decision goes immediate
// sooner; a full launch means the rate supports at least this batch —
// tighten the gap estimate toward what the launch demonstrated. Shrink and
// flush launches are policy artifacts, not demand evidence (a shrink fires
// exactly when this controller judged the key colder — counting it as a
// full launch would heat the estimate in positive feedback), so they leave
// the estimate untouched.
func (c *Controller) Observe(key string, lanes int, why batch.Reason) {
	c.mu.Lock()
	st := c.keys[key]
	if st == nil {
		c.mu.Unlock()
		return
	}
	switch {
	case why == batch.ReasonTimeout && lanes <= 1 && st.ewmaGap > 0:
		st.ewmaGap = time.Duration(float64(st.ewmaGap) * 2)
		c.mu.Unlock()
		c.metrics.Add(MetricShrink, 1)
	case why == batch.ReasonFull && st.ewmaGap > 0:
		st.ewmaGap = time.Duration(float64(st.ewmaGap) * 0.9)
		c.mu.Unlock()
		c.metrics.Add(MetricGrow, 1)
	default:
		c.mu.Unlock()
	}
}

// evictLocked makes room for one more key by dropping the stalest state
// when the bound is reached. Caller holds the lock.
func (c *Controller) evictLocked() {
	if len(c.keys) < c.cfg.MaxKeys {
		return
	}
	var victim string
	var oldest time.Time
	for k, st := range c.keys {
		if victim == "" || st.last.Before(oldest) {
			victim, oldest = k, st.last
		}
	}
	delete(c.keys, victim)
	c.metrics.Add(MetricEvicted, 1)
}

// Keys reports how many fingerprints currently hold state (introspection
// for tests and metrics).
func (c *Controller) Keys() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.keys)
}
