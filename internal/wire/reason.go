package wire

import (
	"errors"
	"fmt"

	"ssdkeeper/internal/serve"
)

// ReasonUpstream is the router's rejection token for a node that failed
// (connection died, dial refused, reply never came) with the request in
// flight — the one token that does not originate in the serve layer.
const ReasonUpstream = "upstream"

// ErrUpstream is the error form of ReasonUpstream.
var ErrUpstream = errors.New("wire: upstream failed")

// ReasonString interns a reply's reason token: the fixed vocabulary returns
// the corresponding constant without allocating, so a caller may retain the
// result past the read buffer's reuse. (The string(b) comparisons compile to
// allocation-free equality checks.)
func ReasonString(b []byte) string {
	switch string(b) {
	case "queue_full":
		return "queue_full"
	case "migrating":
		return "migrating"
	case "draining":
		return "draining"
	case "timeout":
		return "timeout"
	case "invalid":
		return "invalid"
	case ReasonUpstream:
		return ReasonUpstream
	}
	return string(b)
}

// ReasonError maps a reason token back onto the serve-layer error it came
// from (see serve.RejectReason), so a proxy forwarding wire rejections into
// a Completion preserves error identity end to end.
func ReasonError(reason string) error {
	switch reason {
	case "":
		return nil
	case "queue_full":
		return serve.ErrQueueFull
	case "migrating":
		return serve.ErrTenantMigrating
	case "draining":
		return serve.ErrDraining
	case "timeout":
		return serve.ErrCanceled
	case ReasonUpstream:
		return ErrUpstream
	}
	return fmt.Errorf("serve: rejected: %s", reason)
}

// RejectReason renders an error as a reply reason: the serve vocabulary,
// plus "upstream" for proxy transport failures (a router-side listener
// completes with ErrUpstream when the owner node died under the request).
// Exported because the router's /io/batch adaptor renders the same tokens.
func RejectReason(err error) string {
	if errors.Is(err, ErrUpstream) {
		return ReasonUpstream
	}
	return serve.RejectReason(err)
}
