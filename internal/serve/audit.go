package serve

// Node health is judged where it is read. Every read that reports it —
// Ready and Degraded (and so /readyz), WriteMetrics (ssdkeeper_degraded) and
// Audit — pulls the device health snapshot (through the shard mailbox, so
// the counters are read in the owning goroutine; the snapshot also advances
// the engine to the wall target, so due fault events fire first) and folds
// it into a score in [0,1], where 1.0 is a fully healthy device. Once the
// score falls below Config.DegradedScore the node flips to degraded:
// Ready() goes false, /readyz answers 503 "degraded", and the fleet prober
// sees it on its next probe so the rebalancer can migrate tenants away. Degraded is sticky — dead dies do not resurrect, so a sick
// unit stays quarantined until it is drained and replaced — and once flipped
// the readiness reads stop sweeping.

// healthScore folds a health snapshot into a score in [0,1]. Dead dies
// dominate (full weight), read-retry pressure is normalized by the completed
// client requests (weight 0.2), and wear imbalance contributes a small tail
// (weight 0.1). An immortal device scores 1.0.
func healthScore(snap *shardSnapshot) float64 {
	hs := snap.health
	score := 1.0 - hs.DeadDieFrac
	var completed uint64
	for i := range snap.tenants {
		completed += snap.tenants[i].completed[0] + snap.tenants[i].completed[1]
	}
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

// judge flips the node to degraded when the health score is below the
// threshold. The compare-and-swap makes the flip happen, and log, exactly
// once however many reads race to it; a zero threshold never flips.
func (n *Node) judge(score float64) {
	if score < n.cfg.DegradedScore && n.degraded.CompareAndSwap(false, true) && n.cfg.AuditLog != nil {
		n.cfg.AuditLog("serve: node degraded: device health score %.3f below threshold %.3f",
			score, n.cfg.DegradedScore)
	}
}

// Audit snapshots the device, judges its health score against the
// threshold and returns it. Safe to call at any time.
func (n *Node) Audit() float64 {
	score := healthScore(n.snapshot())
	n.judge(score)
	return score
}

// Degraded reports whether the node is quarantined for device health,
// judging it first unless it has already flipped (or health judgement is
// off: a zero DegradedScore).
func (n *Node) Degraded() bool {
	if n.cfg.DegradedScore > 0 && !n.degraded.Load() {
		n.Audit()
	}
	return n.degraded.Load()
}
