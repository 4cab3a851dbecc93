// Package oauthsim emulates the OAuth2 machinery the paper's clients had
// to traverse (all three providers use RFC 6749): a token endpoint
// honouring the refresh_token grant, bearer-token validation with
// expiry on the virtual clock, and a client-side TokenSource that
// caches access tokens and refreshes them over HTTP when they expire.
//
// Functionally this is a small corner of OAuth2, but it charges the
// right costs: the first API call of a run pays an extra HTTPS round
// trip to the token endpoint, exactly like the Java SDKs of 2015.
package oauthsim

import (
	"encoding/json"
	"fmt"
	"net/url"
	"strings"

	"detournet/internal/httpsim"
	"detournet/internal/jsonwire"
	"detournet/internal/simclock"
	"detournet/internal/simproc"
)

// TokenPath is the token endpoint path, mounted on each provider's API
// server.
const TokenPath = "/oauth2/token"

// DefaultTTL is the access-token lifetime in virtual seconds (matching
// the common 3600s expires_in).
const DefaultTTL = 3600.0

// AuthServer is the provider-side authorization server.
type AuthServer struct {
	eng *simclock.Engine
	// TTL is the access-token lifetime in seconds.
	TTL float64

	clients map[string]*clientRecord
	access  map[string]*accessToken
	nextID  int
}

type clientRecord struct {
	secret        string
	refreshTokens map[string]bool
}

type accessToken struct {
	clientID string
	expires  simclock.Time
}

// NewAuthServer returns an empty authorization server on the clock.
func NewAuthServer(eng *simclock.Engine) *AuthServer {
	if eng == nil {
		panic("oauthsim: nil engine")
	}
	return &AuthServer{
		eng:     eng,
		TTL:     DefaultTTL,
		clients: make(map[string]*clientRecord),
		access:  make(map[string]*accessToken),
	}
}

// RegisterClient provisions an API client and returns a refresh token,
// mirroring the one-time interactive consent the paper's experimenters
// performed before benchmarking.
func (a *AuthServer) RegisterClient(clientID, clientSecret string) string {
	rec, ok := a.clients[clientID]
	if !ok {
		rec = &clientRecord{secret: clientSecret, refreshTokens: make(map[string]bool)}
		a.clients[clientID] = rec
	}
	rt := fmt.Sprintf("rt-%s-%d", clientID, len(rec.refreshTokens))
	rec.refreshTokens[rt] = true
	return rt
}

// Mount installs the token endpoint on an API server.
func (a *AuthServer) Mount(s *httpsim.Server) {
	s.Handle("POST", TokenPath, a.handleToken)
}

func (a *AuthServer) handleToken(_ *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
	form, err := url.ParseQuery(string(req.Body))
	if err != nil {
		return oauthErr(httpsim.StatusBadRequest, "invalid_request")
	}
	if form.Get("grant_type") != "refresh_token" {
		return oauthErr(httpsim.StatusBadRequest, "unsupported_grant_type")
	}
	rec, ok := a.clients[form.Get("client_id")]
	if !ok || rec.secret != form.Get("client_secret") {
		return oauthErr(httpsim.StatusUnauthorized, "invalid_client")
	}
	if !rec.refreshTokens[form.Get("refresh_token")] {
		return oauthErr(httpsim.StatusBadRequest, "invalid_grant")
	}
	tok := fmt.Sprintf("at-%d", a.nextID)
	a.nextID++
	a.access[tok] = &accessToken{
		clientID: form.Get("client_id"),
		expires:  a.eng.Now() + simclock.Time(a.TTL),
	}
	body := jsonwire.Token{AccessToken: tok, TokenType: "Bearer", ExpiresIn: a.TTL}.AppendJSON(make([]byte, 0, 80))
	return &httpsim.Response{Status: httpsim.StatusOK, Body: body}
}

// oauthErr answers with an RFC 6749 §5.2 error body.
func oauthErr(status int, code string) *httpsim.Response {
	return &httpsim.Response{Status: status, Body: jsonwire.ErrorBody{Error: code}.AppendJSON(nil)}
}

// Validate checks an Authorization header value and returns the client
// id it belongs to.
func (a *AuthServer) Validate(authorization string) (string, error) {
	const prefix = "Bearer "
	if !strings.HasPrefix(authorization, prefix) {
		return "", fmt.Errorf("oauthsim: not a bearer token")
	}
	tok, ok := a.access[strings.TrimPrefix(authorization, prefix)]
	if !ok {
		return "", fmt.Errorf("oauthsim: unknown token")
	}
	if a.eng.Now() >= tok.expires {
		return "", fmt.Errorf("oauthsim: token expired")
	}
	return tok.clientID, nil
}

// Protect wraps a handler with bearer-token enforcement.
func (a *AuthServer) Protect(fn httpsim.HandlerFunc) httpsim.HandlerFunc {
	return func(ctx *httpsim.Ctx, req *httpsim.Request) *httpsim.Response {
		if _, err := a.Validate(req.Header.Get("Authorization")); err != nil {
			return oauthErr(httpsim.StatusUnauthorized, "invalid_token")
		}
		return fn(ctx, req)
	}
}

// TokenSource is the client side: it lazily fetches and caches an access
// token, refreshing over HTTP when the cached one is within the skew
// window of expiry.
type TokenSource struct {
	client       *httpsim.Client
	host         string
	clientID     string
	clientSecret string
	refreshToken string

	eng     *simclock.Engine
	tok     string
	bearer  string // "Bearer " + tok, built once per fetch
	expires simclock.Time
	// Skew refreshes this many seconds before nominal expiry.
	Skew float64
	// Fetches counts token-endpoint round trips, for tests.
	Fetches int
}

// NewTokenSource returns a source that refreshes against host's token
// endpoint using the registered credentials.
func NewTokenSource(eng *simclock.Engine, client *httpsim.Client, host, clientID, clientSecret, refreshToken string) *TokenSource {
	return &TokenSource{
		client: client, host: host, eng: eng,
		clientID: clientID, clientSecret: clientSecret, refreshToken: refreshToken,
		Skew: 30,
	}
}

// Token returns a valid access token, refreshing if needed.
func (ts *TokenSource) Token(p *simproc.Proc) (string, error) {
	if ts.tok != "" && ts.eng.Now() < ts.expires-simclock.Time(ts.Skew) {
		return ts.tok, nil
	}
	resp, err := ts.client.Do(p, &httpsim.Request{
		Method: "POST", Path: TokenPath, Host: ts.host,
		Header: httpsim.Header{{Key: "Content-Type", Value: "application/x-www-form-urlencoded"}},
		Body:   refreshForm(ts.clientID, ts.clientSecret, ts.refreshToken),
	})
	if err != nil {
		return "", err
	}
	if !resp.OK() {
		var te jsonwire.ErrorBody
		_ = json.Unmarshal(resp.Body, &te) // a body that does not decode leaves the code empty
		return "", fmt.Errorf("oauthsim: token refresh failed: %s", te.Error)
	}
	var tr jsonwire.Token
	if err := tr.Decode(resp.Body); err != nil {
		return "", fmt.Errorf("oauthsim: bad token response: %w", err)
	}
	ts.tok = tr.AccessToken
	ts.bearer = "Bearer " + tr.AccessToken
	ts.expires = ts.eng.Now() + simclock.Time(tr.ExpiresIn)
	ts.Fetches++
	return ts.tok, nil
}

// refreshForm is the refresh_token grant's body, the bytes
// url.Values.Encode writes for it: keys in sorted order, each value
// query-escaped.
func refreshForm(clientID, clientSecret, refreshToken string) []byte {
	b := make([]byte, 0, 96)
	b = append(b, "client_id="...)
	b = append(b, url.QueryEscape(clientID)...)
	b = append(b, "&client_secret="...)
	b = append(b, url.QueryEscape(clientSecret)...)
	b = append(b, "&grant_type=refresh_token&refresh_token="...)
	return append(b, url.QueryEscape(refreshToken)...)
}

// AuthHeader returns a ready Authorization header value.
func (ts *TokenSource) AuthHeader(p *simproc.Proc) (string, error) {
	if _, err := ts.Token(p); err != nil {
		return "", err
	}
	return ts.bearer, nil
}
