package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"strings"

	"autotune/internal/trial"
)

// client.go is the typed Go client for the daemon. It is deliberately
// thin — every method is one request — and surfaces the service's error
// envelope as *APIError so callers can branch on Code ("overloaded",
// "read_only", ...) and honor Retry-After on shed load.

// APIError is a non-2xx response from the service.
type APIError struct {
	Status     int    // HTTP status
	Code       string // machine-readable error code from the envelope
	Message    string // human-readable detail
	RetryAfter int    // seconds from the Retry-After header, 0 if absent
}

func (e *APIError) Error() string {
	return fmt.Sprintf("autotuned: %d %s: %s", e.Status, e.Code, e.Message)
}

// IsRetryable reports whether backing off and retrying the identical
// request is safe and useful: shed load and drain windows are transient,
// and observes are idempotent on the server side.
func (e *APIError) IsRetryable() bool {
	return e.Status == http.StatusTooManyRequests || e.Code == "draining"
}

// Client talks to one autotuned base URL.
type Client struct {
	base string
	hc   *http.Client
}

// NewClient returns a client for base (e.g. "http://127.0.0.1:8153").
// The transport keeps enough idle connections to drive a loaded daemon
// from one process.
func NewClient(base string) *Client {
	tr := &http.Transport{MaxIdleConns: 256, MaxIdleConnsPerHost: 256}
	return &Client{base: base, hc: &http.Client{Transport: tr}}
}

// NewClientHTTP returns a client using the given http.Client (httptest
// servers, custom timeouts, instrumented transports).
func NewClientHTTP(base string, hc *http.Client) *Client {
	return &Client{base: base, hc: hc}
}

// do runs one JSON request; in == nil sends no body, out == nil discards
// the response.
func (c *Client) do(ctx context.Context, method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return fmt.Errorf("autotuned: encode %s: %w", path, err)
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return fmt.Errorf("autotuned: %s: %w", path, err)
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return fmt.Errorf("autotuned: %s: %w", path, err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("autotuned: read %s: %w", path, err)
	}
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		apiErr := &APIError{Status: resp.StatusCode, Message: string(data)}
		var env errorResponse
		if json.Unmarshal(data, &env) == nil && env.Error != "" {
			apiErr.Code, apiErr.Message = env.Code, env.Error
		}
		if ra := resp.Header.Get("Retry-After"); ra != "" {
			if n, err := strconv.Atoi(ra); err == nil {
				apiErr.RetryAfter = n
			}
		}
		return apiErr
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("autotuned: decode %s: %w", path, err)
	}
	return nil
}

// CreateStudy registers a study. created is false when an identical study
// already existed (creation is idempotent); a different spec under the
// same name is an APIError with code "spec_mismatch".
func (c *Client) CreateStudy(ctx context.Context, study string, spec StudySpec) (created bool, err error) {
	var resp createResponse
	err = c.do(ctx, http.MethodPost, "/v1/studies", createRequest{Study: study, StudySpec: spec}, &resp)
	return resp.Created, err
}

// Suggest asks for up to n trial configurations (n <= 0 means 1).
func (c *Client) Suggest(ctx context.Context, study string, n int) ([]SuggestedTrial, error) {
	var resp suggestResponse
	path := "/v1/studies/" + study + "/suggest"
	if err := c.do(ctx, http.MethodPost, path, suggestRequest{Count: n}, &resp); err != nil {
		return nil, err
	}
	return resp.Trials, nil
}

// ObserveResult reports how an observe batch landed.
type ObserveResult struct {
	Acked      int
	Duplicates int
}

// Observe reports measured trials. It is idempotent: resending an acked
// (study, trial) pair is counted in Duplicates and changes nothing, so
// retrying after any transport error is always safe.
func (c *Client) Observe(ctx context.Context, study string, obs ...Observation) (ObserveResult, error) {
	var resp observeResponse
	path := "/v1/studies/" + study + "/observe"
	if err := c.do(ctx, http.MethodPost, path, observeRequest{Observations: obs}, &resp); err != nil {
		return ObserveResult{}, err
	}
	return ObserveResult{Acked: resp.Acked, Duplicates: resp.Duplicates}, nil
}

// Best returns the study's incumbent.
func (c *Client) Best(ctx context.Context, study string) (BestResult, error) {
	var resp BestResult
	err := c.do(ctx, http.MethodGet, "/v1/studies/"+study+"/best", nil, &resp)
	return resp, err
}

// Pareto returns the non-dominated front over the named objectives
// (default: value and cost_seconds).
func (c *Client) Pareto(ctx context.Context, study string, objectives ...string) (ParetoResult, error) {
	path := "/v1/studies/" + study + "/pareto"
	if len(objectives) > 0 {
		path += "?objectives=" + url.QueryEscape(strings.Join(objectives, ","))
	}
	var resp ParetoResult
	err := c.do(ctx, http.MethodGet, path, nil, &resp)
	return resp, err
}

// Trials returns the study's durable history: in ack order while the
// daemon that took the acks lives, in trial-ID order after a restart.
func (c *Client) Trials(ctx context.Context, study string) ([]trial.TrialRecord, error) {
	var resp trialsResponse
	if err := c.do(ctx, http.MethodGet, "/v1/studies/"+study+"/trials", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Trials, nil
}

// Studies lists all live studies.
func (c *Client) Studies(ctx context.Context) ([]StudyInfo, error) {
	var resp listResponse
	if err := c.do(ctx, http.MethodGet, "/v1/studies", nil, &resp); err != nil {
		return nil, err
	}
	return resp.Studies, nil
}

// Ready probes /readyz; nil means the daemon is admitting traffic.
func (c *Client) Ready(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/readyz", nil, nil)
}

// Healthy probes /healthz; nil means the process is alive.
func (c *Client) Healthy(ctx context.Context) error {
	return c.do(ctx, http.MethodGet, "/healthz", nil, nil)
}
