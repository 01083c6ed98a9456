// Package learn is the continuous-learning subsystem: it closes the loop the
// source paper leaves open. SSDKeeper's policy is trained once, offline, on
// synthetic workloads; this package turns the serving daemon into a
// self-improving system that harvests live traffic, retrains, evaluates the
// candidate in shadow, and promotes (or demotes) it automatically.
//
// The loop has four stages, each its own piece:
//
//	Outcome feed   — every adaptation epoch, the keeper controller emits one
//	                 Sample: the feature vector it observed, the strategy it
//	                 applied, and the latency/throughput the device realized
//	                 under that strategy until the next epoch. A nil Sink
//	                 keeps today's behavior at zero cost.
//	Replay buffer  — a bounded, deterministic reservoir (Reservoir) plus a
//	                 running outcome index (OutcomeIndex) that aggregates
//	                 observed per-strategy latency by quantized feature key.
//	Trainer        — a periodic retrain over the buffer: each sample is
//	                 labelled with the best-observed strategy for its key (the
//	                 online analogue of the paper's offline argmin sweep) and
//	                 the classifier is refit through the same nn training
//	                 path keeper-train uses. The new checkpoint is written
//	                 into the model registry and installed as shadow.
//	Promotion gate — a state machine (Learner) that watches the candidate's
//	                 shadow agreement and a latency-regret estimate over N
//	                 epochs, atomically promotes it through the policy
//	                 source, and demotes back to the last-good version if
//	                 post-promotion regret regresses.
//
// The subsystem runs inside the daemon it steers (ssdkeeperd -learn): the
// shards' sample feed is the learner's Offer, and its Actuator acts on the
// daemon's own checkpoint registry and policy source.
package learn

import (
	"math"

	"ssdkeeper/internal/alloc"
	"ssdkeeper/internal/features"
	"ssdkeeper/internal/sim"
)

// Sample is one adaptation epoch's outcome: what the keeper saw, what it
// decided, and what the device realized under that decision until the next
// epoch boundary. The shadow fields carry the candidate's counterfactual
// decision on the same vector, which is what lets the promotion gate tally
// agreement and estimate regret without ever touching the device.
type Sample struct {
	At    sim.Time `json:"at"`    // sim time of the epoch boundary that decided
	Epoch sim.Time `json:"epoch"` // sim duration until the next boundary
	Shard int      `json:"shard"` // serving shard that emitted the sample

	Vector        features.Vector `json:"vector"`
	Strategy      alloc.Strategy  `json:"strategy"`       // strategy applied to the device
	StrategyIndex int             `json:"strategy_index"` // index in the strategy space (-1 outside)
	Explore       bool            `json:"explore,omitempty"`
	PolicyVersion string          `json:"policy_version"`

	ShadowVersion string `json:"shadow_version,omitempty"`
	ShadowIndex   int    `json:"shadow_index"` // candidate's decision (-1: none or error)
	ShadowAgreed  bool   `json:"shadow_agreed,omitempty"`
	ShadowErred   bool   `json:"shadow_erred,omitempty"`

	Completed  uint64   `json:"completed"`      // requests completed during the epoch
	LatencySum sim.Time `json:"latency_sum_ns"` // sum of their simulated latencies
}

// MeanLatency returns the epoch's mean per-request simulated latency, or 0
// when nothing completed.
func (s Sample) MeanLatency() sim.Time {
	if s.Completed == 0 {
		return 0
	}
	return s.LatencySum / sim.Time(s.Completed)
}

// Throughput returns the epoch's completion rate in requests per simulated
// second, or 0 for a zero-length epoch.
func (s Sample) Throughput() float64 {
	if s.Epoch <= 0 {
		return 0
	}
	return float64(s.Completed) / (float64(s.Epoch) / float64(sim.Second))
}

// HasOutcome reports whether the epoch realized a measurable outcome (at
// least one completion); outcome-free samples still count shadow agreement
// but contribute nothing to training or regret.
func (s Sample) HasOutcome() bool { return s.Completed > 0 }

// Sink receives samples as epochs complete. Offer must be safe for
// concurrent use (every serving shard emits into the same sink) and must not
// block for long: it runs inside the shard goroutine that paces the device.
type Sink interface {
	Offer(s Sample)
}

// Key is a quantized feature vector: samples whose vectors collapse onto the
// same key are treated as the same operating point when aggregating
// outcomes. Quantization is what gives the online labeller its "strategy
// sweep": epochs at the same operating point under different strategies
// (policy drift, exploration, promoted candidates) become comparable
// measurements of one workload.
type Key uint32

// propBits quantizes each tenant proportion to 3 bits (eighths).
const propBits = 3

// VectorKey quantizes a feature vector onto its outcome-aggregation key:
// the intensity level (5 bits), the per-tenant read/write characteristics
// (4 bits), and each tenant proportion rounded to eighths (3 bits each).
func VectorKey(v features.Vector) Key {
	k := Key(v.Intensity) & 0x1f
	shift := 5
	for _, r := range v.ReadChar {
		if r {
			k |= 1 << shift
		}
		shift++
	}
	for _, p := range v.Prop {
		q := int(math.Round(p * float64(int(1)<<propBits-1)))
		if q < 0 {
			q = 0
		}
		if q > int(1)<<propBits-1 {
			q = int(1)<<propBits - 1
		}
		k |= Key(q) << shift
		shift += propBits
	}
	return k
}
