package obs

import (
	"context"
	"crypto/rand"
	"encoding/hex"
)

// HeaderRequestID is the HTTP header carrying a request's correlation
// ID: clients may send one, the server generates one when absent, and
// every response (success or error envelope) echoes it.
const HeaderRequestID = "X-Request-Id"

// maxRequestIDLen bounds an accepted inbound request ID. Anything
// longer (or containing non-token bytes) is replaced by a generated ID
// so a hostile client cannot inject log noise or unbounded labels.
const maxRequestIDLen = 128

// ctxKey is the private context-key namespace.
type ctxKey int

const requestIDKey ctxKey = 0

// NewRequestID returns a fresh 16-hex-character random request ID.
// Randomness comes from crypto/rand; on the (effectively impossible)
// failure of the system randomness source it degrades to a fixed
// sentinel rather than panicking in a request path.
func NewRequestID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "rid-unavailable"
	}
	return hex.EncodeToString(b[:])
}

// ValidRequestID reports whether a caller-supplied request ID is safe to
// adopt: non-empty, at most maxRequestIDLen bytes, and built from the
// URL-and-log-safe token alphabet [A-Za-z0-9._:/+-].
func ValidRequestID(id string) bool {
	if id == "" || len(id) > maxRequestIDLen {
		return false
	}
	for i := 0; i < len(id); i++ {
		c := id[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9':
		case c == '.' || c == '_' || c == ':' || c == '/' || c == '+' || c == '-':
		default:
			return false
		}
	}
	return true
}

// WithRequestID returns a context carrying the request ID. Loggers from
// NewLogger stamp it on every record logged under the context, and the
// typed client forwards it as the X-Request-Id header.
func WithRequestID(ctx context.Context, id string) context.Context {
	return context.WithValue(ctx, requestIDKey, id)
}

// RequestIDFrom returns the context's request ID, or "" when none is
// set.
func RequestIDFrom(ctx context.Context) string {
	id, _ := ctx.Value(requestIDKey).(string)
	return id
}
