package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/jobs"
	"repro/internal/obs"
	"repro/internal/serve"
)

// Client calls a reprod server. Construct with New; the zero value is
// not usable. Methods are safe for concurrent use.
type Client struct {
	base string
	hc   *http.Client
	// apiRevision remembers the last X-Reprod-Api header seen, 0 before
	// any response carried one.
	apiRevision atomic.Int64
}

// Option configures a Client.
type Option func(*Client)

// WithHTTPClient substitutes the http.Client used for every request
// (default http.DefaultClient). Give it a client with a timeout for
// unary calls only if job event streams get their own Client — a
// client-wide timeout would cut long SSE streams mid-job.
func WithHTTPClient(hc *http.Client) Option { return func(c *Client) { c.hc = hc } }

// New builds a client for the server at baseURL (scheme://host[:port],
// with or without a trailing slash).
func New(baseURL string, opts ...Option) *Client {
	c := &Client{base: strings.TrimRight(baseURL, "/"), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

// APIRevision reports the server's /v1 wire-contract revision from the
// X-Reprod-Api header of the most recent response (0 before the first
// call). Compare against serve.APIRevision to detect a newer server.
func (c *Client) APIRevision() int { return int(c.apiRevision.Load()) }

// WithRequestID returns a context that makes every client call under it
// send the given ID as X-Request-Id, so one caller-chosen ID names the
// request in the caller's logs, the server's access log and any error
// envelope. It is obs.WithRequestID re-exported so client users need no
// obs import. Invalid IDs (empty, over 128 chars, characters outside
// [A-Za-z0-9._:/+-]) are not sent; the server then assigns its own.
func WithRequestID(ctx context.Context, id string) context.Context {
	return obs.WithRequestID(ctx, id)
}

// APIError is a decoded non-2xx server reply.
type APIError struct {
	// StatusCode is the HTTP status.
	StatusCode int
	// Code is the server's stable machine-readable error code (one of
	// the serve.Code* constants; empty when the reply was not a coded
	// envelope, e.g. a 404 from the wrong base URL).
	Code string
	// Message is the human-readable error.
	Message string
	// RequestID is the server-echoed X-Request-Id of the failed request
	// (empty when the reply carried none) — quote it in bug reports so
	// the failure can be found in the server's logs.
	RequestID string
}

func (e *APIError) Error() string {
	msg := fmt.Sprintf("server: %d: %s", e.StatusCode, e.Message)
	if e.Code != "" {
		msg = fmt.Sprintf("server: %d %s: %s", e.StatusCode, e.Code, e.Message)
	}
	if e.RequestID != "" {
		msg += " (request " + e.RequestID + ")"
	}
	return msg
}

// IsCode reports whether err is an *APIError carrying the given stable
// error code (a serve.Code* constant).
func IsCode(err error, code string) bool {
	var ae *APIError
	return errors.As(err, &ae) && ae.Code == code
}

// do runs one round trip: marshal in (nil = no body), decode a 2xx into
// out (nil = discard), decode anything else into an *APIError.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		raw, ok := in.(json.RawMessage)
		if !ok {
			var err error
			if raw, err = json.Marshal(in); err != nil {
				return fmt.Errorf("client: encoding %s %s body: %w", method, path, err)
			}
		}
		body = bytes.NewReader(raw)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	setRequestID(req)
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("client: %s %s: %w", method, path, err)
	}
	defer resp.Body.Close()
	c.noteRevision(resp)
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return decodeAPIError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		return fmt.Errorf("client: decoding %s %s reply: %w", method, path, err)
	}
	return nil
}

// noteRevision records the response's X-Reprod-Api header.
func (c *Client) noteRevision(resp *http.Response) {
	if v := resp.Header.Get("X-Reprod-Api"); v != "" {
		if n, err := strconv.ParseInt(v, 10, 64); err == nil {
			c.apiRevision.Store(n)
		}
	}
}

// setRequestID propagates a caller-set request ID (WithRequestID) onto
// the outgoing request's X-Request-Id header.
func setRequestID(req *http.Request) {
	if id := obs.RequestIDFrom(req.Context()); obs.ValidRequestID(id) {
		req.Header.Set(obs.HeaderRequestID, id)
	}
}

// decodeAPIError turns a non-2xx reply into an *APIError, degrading
// gracefully when the body is not a coded envelope. The request ID is
// taken from the echo header, falling back to the envelope's requestId
// field (a proxy may strip headers but forward the body).
func decodeAPIError(resp *http.Response) error {
	raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	rid := resp.Header.Get(obs.HeaderRequestID)
	var envelope struct {
		Code      string `json:"code"`
		Error     string `json:"error"`
		RequestID string `json:"requestId"`
	}
	if err := json.Unmarshal(raw, &envelope); err == nil && envelope.Error != "" {
		if rid == "" {
			rid = envelope.RequestID
		}
		return &APIError{StatusCode: resp.StatusCode, Code: envelope.Code, Message: envelope.Error, RequestID: rid}
	}
	return &APIError{StatusCode: resp.StatusCode, Message: strings.TrimSpace(string(raw)), RequestID: rid}
}

// Analyze runs POST /v1/analyze: one type's hierarchy analysis.
func (c *Client) Analyze(ctx context.Context, req serve.AnalyzeRequest) (*serve.AnalyzeResponse, error) {
	var out serve.AnalyzeResponse
	if err := c.do(ctx, http.MethodPost, "/v1/analyze", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Batch runs POST /v1/batch: many types, per-type errors inline.
func (c *Client) Batch(ctx context.Context, req serve.BatchRequest) (*serve.BatchResponse, error) {
	var out serve.BatchResponse
	if err := c.do(ctx, http.MethodPost, "/v1/batch", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Check runs POST /v1/check: a model-check batch over shared
// exploration graphs.
func (c *Client) Check(ctx context.Context, req serve.CheckRequestBody) (*serve.CheckResponse, error) {
	var out serve.CheckResponse
	if err := c.do(ctx, http.MethodPost, "/v1/check", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// RegisterProtocol runs POST /v1/protocols. The descriptor is the raw
// protodef JSON document (it is forwarded verbatim, not re-encoded).
func (c *Client) RegisterProtocol(ctx context.Context, descriptor []byte) (*serve.ProtocolResponse, error) {
	var out serve.ProtocolResponse
	if err := c.do(ctx, http.MethodPost, "/v1/protocols", json.RawMessage(descriptor), &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Protocol runs GET /v1/protocols/{fingerprint}.
func (c *Client) Protocol(ctx context.Context, fingerprint string) (*serve.ProtocolDetail, error) {
	var out serve.ProtocolDetail
	if err := c.do(ctx, http.MethodGet, "/v1/protocols/"+url.PathEscape(fingerprint), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// SubmitJob runs POST /v1/jobs: the reply is the queued job's snapshot.
func (c *Client) SubmitJob(ctx context.Context, req serve.JobRequest) (*jobs.View, error) {
	var out jobs.View
	if err := c.do(ctx, http.MethodPost, "/v1/jobs", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Job runs GET /v1/jobs/{id}.
func (c *Client) Job(ctx context.Context, id string) (*jobs.View, error) {
	var out jobs.View
	if err := c.do(ctx, http.MethodGet, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// CancelJob runs DELETE /v1/jobs/{id}: best-effort cancellation,
// returning the job's snapshot at cancellation time.
func (c *Client) CancelJob(ctx context.Context, id string) (*jobs.View, error) {
	var out jobs.View
	if err := c.do(ctx, http.MethodDelete, "/v1/jobs/"+url.PathEscape(id), nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats runs GET /v1/stats.
func (c *Client) Stats(ctx context.Context) (*serve.StatsResponse, error) {
	var out serve.StatsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/stats", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Version runs GET /v1/version.
func (c *Client) Version(ctx context.Context) (*serve.VersionResponse, error) {
	var out serve.VersionResponse
	if err := c.do(ctx, http.MethodGet, "/v1/version", nil, &out); err != nil {
		return nil, err
	}
	return &out, nil
}
