package serve

import "ssdkeeper/internal/ssd"

// Node health is judged where it is read. Every read that reports it —
// Ready and Degraded (and so /readyz), /status, WriteMetrics
// (ssdkeeper_degraded) and Audit — reads the node's status record (one
// mailbox round trip, so the counters are read in the owning goroutine; the
// read also advances the engine to the wall target, so due fault events fire
// first), which carries the device's health folded into a score in [0,1],
// where 1.0 is a fully healthy device. Once the score falls below
// Config.DegradedScore the node flips to degraded: Ready() goes false,
// /readyz answers 503 "degraded", and the fleet prober sees it on its next
// probe so the rebalancer can migrate tenants away. Degraded is sticky —
// dead dies do not resurrect, so a sick unit stays quarantined until it is
// drained and replaced.

// healthScore folds a health snapshot into a score in [0,1]. Dead dies
// dominate (full weight), read-retry pressure is normalized by the completed
// client requests (weight 0.2), and wear imbalance contributes a small tail
// (weight 0.1). An immortal device scores 1.0.
func healthScore(hs ssd.HealthSnapshot, completed uint64) float64 {
	score := 1.0 - hs.DeadDieFrac
	if hs.ReadRetries > 0 && completed > 0 {
		rate := float64(hs.ReadRetries) / float64(completed)
		if rate > 1 {
			rate = 1
		}
		score -= 0.2 * rate
	}
	spread := hs.WearSpread
	if spread > 1 {
		spread = 1
	}
	score -= 0.1 * spread
	if score < 0 {
		score = 0
	}
	return score
}

// judge completes a status record with the node's verdicts. It flips the
// node to degraded when the health score is below the threshold — the
// compare-and-swap makes the flip happen, and log, exactly once however many
// reads race to it; a zero threshold never flips — and then names the first
// reason the node should not receive new traffic, if any.
func (n *Node) judge(st *Status) {
	if st.HealthScore < n.cfg.DegradedScore && n.degraded.CompareAndSwap(false, true) && n.cfg.AuditLog != nil {
		n.cfg.AuditLog("serve: node degraded: device health score %.3f below threshold %.3f",
			st.HealthScore, n.cfg.DegradedScore)
	}
	st.Degraded = n.degraded.Load()
	switch err := n.Err(); {
	case err != nil:
		st.NotReady = "device error: " + err.Error()
	case n.draining.Load():
		st.NotReady = "draining"
	case st.Degraded:
		st.NotReady = "degraded: device health below threshold"
	case n.parked.Load() > 0:
		st.NotReady = "tenant handoff in flight"
	}
	st.Ready = st.NotReady == ""
}

// Audit reads the status record, judging the device's health score against
// the threshold, and returns the score. Safe to call at any time.
func (n *Node) Audit() float64 { return n.Status().HealthScore }

// Degraded reports whether the node is quarantined for device health,
// judging it first (a zero DegradedScore never degrades).
func (n *Node) Degraded() bool { return n.Status().Degraded }
