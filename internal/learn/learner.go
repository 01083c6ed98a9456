package learn

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// Learner is the promotion controller: it ingests the outcome feed, retrains
// candidates from the replay buffer, evaluates them in shadow, and drives the
// Actuator through the promotion state machine:
//
//	idle ──retrain──▶ shadowing ──gate clears──▶ watching ──no regression──▶ idle
//	  ▲                   │                          │          (candidate
//	  │                   │ gate fails / errs        │           becomes
//	  └────discard────────┘                          │           last-good)
//	  ▲                                              │
//	  └──────────demote to last-good─────────────────┘
//
// Offer is the only concurrent entry point (every shard's sink feeds it);
// everything else runs on the single goroutine that calls Step — the daemon's
// learner ticker. Status is published through an atomic pointer so the
// metrics renderer reads it lock-free.
type Learner struct {
	cfg Config
	act Actuator

	mu    sync.Mutex
	inbox []Sample

	res    *Reservoir
	idx    *OutcomeIndex
	recent []Sample // rolling window of outcome samples, for regret

	state        string
	candidate    string // version under shadow evaluation or post-promotion watch
	lastGood     string // last version that survived a watch window
	parent       string // active version most recently seen in the feed
	candAgree    uint64
	candDiverge  uint64
	candErrs     uint64
	sinceRetrain int     // outcome samples ingested since the last retrain
	baseRegret   float64 // serving regret at promotion time, the demotion baseline
	watchSeen    int     // candidate-served outcome samples since promotion

	samples    atomic.Uint64
	retrains   uint64
	promotions uint64
	demotions  uint64
	discards   uint64

	status atomic.Pointer[Status]
}

// Learner states, as surfaced in Status and /metrics.
const (
	StateIdle      = "idle"      // accumulating samples, no candidate
	StateShadowing = "shadowing" // candidate installed as shadow, gate pending
	StateWatching  = "watching"  // candidate promoted, demotion watch running
)

// Config parameterizes a Learner. Zero values take the documented defaults;
// Classes is required.
type Config struct {
	Classes   int   // strategy-space size (required)
	BufferCap int   // replay-buffer capacity (default 512)
	Seed      int64 // seeds the reservoir and every retrain

	MinSamples   int // outcome samples before the first retrain (default 64)
	RetrainEvery int // new outcome samples between retrains (default 64)

	Hidden     int // trainer: hidden width (default 32)
	Iterations int // trainer: epochs (default 80)
	Batch      int // trainer: minibatch (default 16)

	MinEpochs     int     // shadow decisions before the gate rules (default 8)
	AgreeMin      float64 // min shadow agreement ratio to promote (default 0)
	RegretTol     float64 // candidate may estimate at most this much worse, relative (default 0.05)
	MinComparable int     // outcome samples the regret estimate must rest on (default 0)

	DemoteWindow int     // candidate-served outcome samples before the watch rules (default 16)
	DemoteMargin float64 // relative regret growth that triggers demotion (default 0.10)

	RecentWindow int // rolling outcome window for regret estimates (default 128)

	// Logf, when set, receives one line per state transition.
	Logf func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.BufferCap <= 0 {
		c.BufferCap = 512
	}
	if c.MinSamples <= 0 {
		c.MinSamples = 64
	}
	if c.RetrainEvery <= 0 {
		c.RetrainEvery = 64
	}
	if c.MinEpochs <= 0 {
		c.MinEpochs = 8
	}
	if c.RegretTol == 0 {
		c.RegretTol = 0.05
	}
	if c.DemoteWindow <= 0 {
		c.DemoteWindow = 16
	}
	if c.DemoteMargin == 0 {
		c.DemoteMargin = 0.10
	}
	if c.RecentWindow <= 0 {
		c.RecentWindow = 128
	}
	return c
}

// Status is one lock-free snapshot of the learner for the metrics renderer.
type Status struct {
	Samples  uint64 // samples offered (including outcome-free epochs)
	Buffered int    // replay-buffer occupancy

	Retrains   uint64
	Promotions uint64
	Demotions  uint64
	Discards   uint64

	State     string
	Candidate string // version in shadow or under watch ("" in idle)
	LastGood  string

	CandidateAgree   uint64
	CandidateDiverge uint64
	CandidateErrs    uint64

	Regret float64 // rolling relative regret of the serving policy
}

// New returns a Learner driving the given actuator.
func New(cfg Config, act Actuator) (*Learner, error) {
	cfg = cfg.withDefaults()
	if cfg.Classes <= 0 {
		return nil, fmt.Errorf("learn: learner needs the strategy-space size")
	}
	if act == nil {
		return nil, fmt.Errorf("learn: learner needs an actuator")
	}
	l := &Learner{
		cfg:   cfg,
		act:   act,
		res:   NewReservoir(cfg.BufferCap, cfg.Seed),
		idx:   NewOutcomeIndex(cfg.Classes),
		state: StateIdle,
	}
	l.publish()
	return l, nil
}

// Offer enqueues one sample. Safe for concurrent use and cheap: an append
// under a short mutex — shard goroutines call it from their epoch loop.
func (l *Learner) Offer(s Sample) {
	l.samples.Add(1)
	l.mu.Lock()
	l.inbox = append(l.inbox, s)
	l.mu.Unlock()
}

// Status returns the latest published snapshot, lock-free.
func (l *Learner) Status() Status { return *l.status.Load() }

// Step ingests everything offered since the last call and advances the state
// machine: retrain when due, rule on the promotion gate, rule on the
// demotion watch. Single-goroutine; now stamps any checkpoint written.
// Actuator failures are returned after the state is parked back in idle, so
// a broken registry never wedges the machine.
func (l *Learner) Step(now time.Time) error {
	l.mu.Lock()
	batch := l.inbox
	l.inbox = nil
	l.mu.Unlock()

	for _, s := range batch {
		l.ingest(s)
	}
	err := l.advance(now)
	l.publish()
	return err
}

// ingest folds one sample into the buffer, the outcome index, the rolling
// window, and the candidate's shadow tallies.
func (l *Learner) ingest(s Sample) {
	if s.PolicyVersion != "" {
		l.parent = s.PolicyVersion
	}
	if l.state == StateShadowing && l.candidate != "" && s.ShadowVersion == l.candidate {
		switch {
		case s.ShadowErred:
			l.candErrs++
		case s.ShadowAgreed:
			l.candAgree++
		default:
			l.candDiverge++
		}
	}
	if !s.HasOutcome() {
		return
	}
	l.res.Add(s)
	l.idx.Add(s)
	l.sinceRetrain++
	if l.state == StateWatching && s.PolicyVersion == l.candidate && !s.Explore {
		l.watchSeen++
	}
	l.recent = append(l.recent, s)
	if over := len(l.recent) - l.cfg.RecentWindow; over > 0 {
		l.recent = l.recent[over:]
	}
}

// advance runs the due state transition, at most one per Step.
func (l *Learner) advance(now time.Time) error {
	switch l.state {
	case StateIdle:
		if l.res.Len() >= l.cfg.MinSamples && l.sinceRetrain >= l.cfg.RetrainEvery {
			return l.retrain(now)
		}
	case StateShadowing:
		return l.ruleGate()
	case StateWatching:
		return l.ruleWatch()
	}
	return nil
}

// retrain fits a candidate on the buffer, checkpoints it, and installs it as
// shadow.
func (l *Learner) retrain(now time.Time) error {
	net, meta, err := Retrain(l.res.Samples(), l.idx, TrainerConfig{
		Classes:    l.cfg.Classes,
		Hidden:     l.cfg.Hidden,
		Iterations: l.cfg.Iterations,
		Batch:      l.cfg.Batch,
		Seed:       l.cfg.Seed,
	}, now, l.parent)
	if err != nil {
		return fmt.Errorf("learn: retrain: %w", err)
	}
	l.retrains++
	l.sinceRetrain = 0
	version, err := l.act.SaveCandidate(net, meta, l.protected())
	if err != nil {
		return fmt.Errorf("learn: save candidate: %w", err)
	}
	if err := l.act.InstallShadow(version); err != nil {
		return fmt.Errorf("learn: install shadow %s: %w", version, err)
	}
	l.candidate = version
	l.candAgree, l.candDiverge, l.candErrs = 0, 0, 0
	l.state = StateShadowing
	l.logf("learn: candidate %s (trained on %d samples, parent %s) installed as shadow",
		version, meta.Samples, l.parent)
	return nil
}

// ruleGate decides the shadowing candidate's fate once enough evidence has
// accumulated: any shadow error discards immediately; otherwise, after
// MinEpochs decisions and MinComparable comparable outcomes, the candidate
// promotes when its agreement ratio and estimated regret clear the
// thresholds, and is discarded when they do not. Before that, hold.
func (l *Learner) ruleGate() error {
	if l.candErrs > 0 {
		return l.discard("shadow errors")
	}
	epochs := l.candAgree + l.candDiverge
	if epochs < uint64(l.cfg.MinEpochs) {
		return nil // hold: not enough shadow decisions yet
	}
	candRegret, actRegret, comparable := l.gateRegret()
	if comparable < l.cfg.MinComparable {
		return nil // hold: not enough comparable outcomes yet
	}
	agreeRatio := float64(l.candAgree) / float64(epochs)
	if agreeRatio < l.cfg.AgreeMin {
		return l.discard(fmt.Sprintf("agreement %.2f below %.2f", agreeRatio, l.cfg.AgreeMin))
	}
	if candRegret > actRegret+l.cfg.RegretTol {
		return l.discard(fmt.Sprintf("estimated regret %.3f vs active %.3f", candRegret, actRegret))
	}
	return l.promote()
}

// promote flips the candidate to active and opens the demotion watch.
func (l *Learner) promote() error {
	prev, err := l.act.Promote(l.candidate)
	if err != nil {
		cand := l.candidate
		l.clearCandidate()
		if cerr := l.act.ClearShadow(); cerr != nil {
			l.logf("learn: clear shadow after failed promotion of %s: %v", cand, cerr)
		}
		return fmt.Errorf("learn: promote %s: %w", cand, err)
	}
	if err := l.act.ClearShadow(); err != nil {
		l.logf("learn: clear shadow after promoting %s: %v", l.candidate, err)
	}
	if prev != "" {
		l.lastGood = prev
	}
	l.promotions++
	l.baseRegret = l.servingRegret()
	l.watchSeen = 0
	l.state = StateWatching
	l.logf("learn: promoted %s (was %s, baseline regret %.3f); watching %d outcomes",
		l.candidate, prev, l.baseRegret, l.cfg.DemoteWindow)
	return nil
}

// ruleWatch confirms or demotes a freshly promoted candidate once it has
// served DemoteWindow outcome epochs: realized regret above the promotion
// baseline plus the margin rolls the active policy back to last-good.
func (l *Learner) ruleWatch() error {
	if l.watchSeen < l.cfg.DemoteWindow {
		return nil // hold: candidate has not served enough epochs yet
	}
	regret := l.candidateRegret()
	if regret > l.baseRegret+l.cfg.DemoteMargin && l.lastGood != "" {
		cand := l.candidate
		prev, err := l.act.Promote(l.lastGood)
		if err != nil {
			l.clearCandidate()
			return fmt.Errorf("learn: demote %s to %s: %w", cand, l.lastGood, err)
		}
		l.demotions++
		l.logf("learn: demoted %s (regret %.3f vs baseline %.3f): %s active again",
			prev, regret, l.baseRegret, l.lastGood)
		l.clearCandidate()
		return nil
	}
	l.lastGood = l.candidate
	l.logf("learn: %s confirmed (regret %.3f, baseline %.3f)", l.candidate, regret, l.baseRegret)
	l.clearCandidate()
	return nil
}

// discard clears the shadow and returns to idle.
func (l *Learner) discard(why string) error {
	cand := l.candidate
	l.discards++
	l.clearCandidate()
	if err := l.act.ClearShadow(); err != nil {
		return fmt.Errorf("learn: clear discarded shadow %s: %w", cand, err)
	}
	l.logf("learn: discarded %s: %s", cand, why)
	return nil
}

func (l *Learner) clearCandidate() {
	l.candidate = ""
	l.candAgree, l.candDiverge, l.candErrs = 0, 0, 0
	l.watchSeen = 0
	l.state = StateIdle
}

// protected lists the versions the actuator's checkpoint GC must never
// delete alongside whatever it protects itself (active and shadow).
func (l *Learner) protected() []string {
	var keep []string
	if l.lastGood != "" {
		keep = append(keep, l.lastGood)
	}
	if l.candidate != "" {
		keep = append(keep, l.candidate)
	}
	return keep
}

// gateRegret estimates, over the rolling window, how much worse the shadow
// candidate's decisions would have been than the applied ones — per the
// outcome index, relative to the best-measured strategy at each operating
// point. Only epochs where both the applied and the shadow strategy have
// measurements are comparable. Exploration epochs are excluded: their
// applied strategy is deliberate noise, not the active policy's choice.
func (l *Learner) gateRegret() (cand, act float64, comparable int) {
	var candSum, actSum float64
	for _, s := range l.recent {
		if s.Explore || s.ShadowVersion != l.candidate || s.ShadowIndex < 0 {
			continue
		}
		k := VectorKey(s.Vector)
		_, best, ok := l.idx.Best(k)
		if !ok || best <= 0 {
			continue
		}
		candEst, n := l.idx.Est(k, s.ShadowIndex)
		if n == 0 {
			continue
		}
		actEst, n := l.idx.Est(k, s.StrategyIndex)
		if n == 0 {
			continue
		}
		candSum += (candEst - best) / best
		actSum += (actEst - best) / best
		comparable++
	}
	if comparable == 0 {
		return 0, 0, 0
	}
	return candSum / float64(comparable), actSum / float64(comparable), comparable
}

// servingRegret is the rolling realized regret of whatever policy served the
// recent window: each epoch's measured latency against the best-measured
// strategy at its operating point.
func (l *Learner) servingRegret() float64 {
	return l.regretOver(func(s Sample) bool { return !s.Explore })
}

// candidateRegret is servingRegret restricted to epochs the promoted
// candidate decided.
func (l *Learner) candidateRegret() float64 {
	return l.regretOver(func(s Sample) bool { return !s.Explore && s.PolicyVersion == l.candidate })
}

func (l *Learner) regretOver(keep func(Sample) bool) float64 {
	var sum float64
	var n int
	for _, s := range l.recent {
		if !keep(s) {
			continue
		}
		_, best, ok := l.idx.Best(VectorKey(s.Vector))
		if !ok || best <= 0 {
			continue
		}
		sum += (float64(s.MeanLatency()) - best) / best
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// publish refreshes the lock-free status snapshot.
func (l *Learner) publish() {
	st := &Status{
		Samples:          l.samples.Load(),
		Buffered:         l.res.Len(),
		Retrains:         l.retrains,
		Promotions:       l.promotions,
		Demotions:        l.demotions,
		Discards:         l.discards,
		State:            l.state,
		Candidate:        l.candidate,
		LastGood:         l.lastGood,
		CandidateAgree:   l.candAgree,
		CandidateDiverge: l.candDiverge,
		CandidateErrs:    l.candErrs,
		Regret:           l.servingRegret(),
	}
	l.status.Store(st)
}

func (l *Learner) logf(format string, args ...any) {
	if l.cfg.Logf != nil {
		l.cfg.Logf(format, args...)
	}
}
