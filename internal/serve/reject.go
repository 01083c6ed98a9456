package serve

import (
	"errors"
	"fmt"
)

// reject is one row of the reject vocabulary: a refusal as the error the
// serving path raises and the reason token the wire protocol carries.
type reject struct {
	err    error
	reason string
}

// rejects is the whole vocabulary. The wire listener renders from it and the
// frame codec reads its tokens back, so a node, a router and a client agree
// on what a refusal is called by construction.
var rejects = [...]reject{
	{ErrQueueFull, "queue_full"},
	{ErrTenantMigrating, "migrating"},
	{ErrDraining, "draining"},
	{ErrUpstream, "upstream"},
}

// invalidReason is what every other error is: a request refused for what it
// says.
const invalidReason = "invalid"

// RejectReason renders an error as its reason token.
func RejectReason(err error) string {
	for _, r := range rejects {
		if errors.Is(err, r.err) {
			return r.reason
		}
	}
	return invalidReason
}

// ReasonString interns a reason token read off the wire: the vocabulary's
// tokens come back as the table's own strings without allocating, so a caller
// may retain the result past its read buffer's reuse. (string(b) == s
// compiles to an allocation-free comparison.)
func ReasonString(b []byte) string {
	for _, r := range rejects {
		if string(b) == r.reason {
			return r.reason
		}
	}
	if string(b) == invalidReason {
		return invalidReason
	}
	return string(b)
}

// ReasonError maps a reason token back onto the error it names, so a proxy
// relaying a node's refusal into a Completion preserves error identity end
// to end. The empty token is success.
func ReasonError(reason string) error {
	if reason == "" {
		return nil
	}
	for _, r := range rejects {
		if reason == r.reason {
			return r.err
		}
	}
	return fmt.Errorf("serve: rejected: %s", reason)
}
