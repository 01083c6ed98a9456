package serve

import (
	"errors"
	"fmt"
	"net/http"
)

// reject is one row of the reject vocabulary: a refusal as the error the
// serving path raises, the reason token the line and wire protocols carry,
// and the HTTP status /io answers with.
type reject struct {
	err    error
	reason string
	status int
}

// rejects is the whole vocabulary. The HTTP front renders from it and the
// wire frame codec writes and reads its tokens, so a node, a router and a
// client agree on what a refusal is called by construction.
var rejects = [...]reject{
	{ErrQueueFull, "queue_full", http.StatusTooManyRequests},
	{ErrTenantMigrating, "migrating", http.StatusServiceUnavailable},
	{ErrDraining, "draining", http.StatusServiceUnavailable},
	{ErrCanceled, "timeout", http.StatusGatewayTimeout},
	{ErrUpstream, "upstream", http.StatusBadGateway},
}

// invalid is what every other error is: a request refused for what it says.
var invalid = reject{reason: "invalid", status: http.StatusBadRequest}

// classify finds an error's row.
func classify(err error) reject {
	for _, r := range rejects {
		if errors.Is(err, r.err) {
			return r
		}
	}
	return invalid
}

// RejectReason renders an error as its reason token.
func RejectReason(err error) string { return classify(err).reason }

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
	if string(b) == invalid.reason {
		return invalid.reason
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

// retryAfterSeconds is the backoff hint sent with 429/503. One second spans
// several pacer ticks and many device service times at any sane Accel.
const retryAfterSeconds = "1"

// writeReject answers a refused /io with its row's status, plus the
// Retry-After hint where a retry can succeed.
func writeReject(w http.ResponseWriter, err error) {
	status := classify(err).status
	if status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable {
		w.Header().Set("Retry-After", retryAfterSeconds)
	}
	http.Error(w, err.Error(), status)
}
