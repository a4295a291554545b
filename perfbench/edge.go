package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"

	"github.com/dpgo/svt/client"
	"github.com/dpgo/svt/server"
)

// edge is the analyst's view of the service: the wire SDK, JSON over
// HTTP, or the in-process reference the answers are checked against.
type edge interface {
	create(p client.CreateParams) (string, error)
	query(id string, items []client.QueryItem) (*client.BatchResult, error)
	// status returns errNotFound for a session that does not exist.
	status(id string) (*client.SessionStatus, error)
	remove(id string) error
	close() error
}

var errNotFound = errors.New("session not found")

// dialFunc opens an analyst's TCP connection; the traced run substitutes
// one that records socket reads and writes.
type dialFunc func(addr string) (net.Conn, error)

func plainDial(addr string) (net.Conn, error) { return net.Dial("tcp", addr) }

// wireEdge is the Go SDK over the binary wire protocol, with its default
// retry policy, as an application would use it.
type wireEdge struct{ c *client.Client }

func dialWire(addr, tenant string, dial dialFunc) (*wireEdge, error) {
	c, err := client.Dial(addr, client.Options{Tenant: tenant, Dialer: dial})
	if err != nil {
		return nil, fmt.Errorf("dial wire %s: %w", addr, err)
	}
	return &wireEdge{c: c}, nil
}

func (e *wireEdge) create(p client.CreateParams) (string, error) {
	cr, err := e.c.Create(p)
	if err != nil {
		return "", err
	}
	return cr.ID, nil
}

func (e *wireEdge) query(id string, items []client.QueryItem) (*client.BatchResult, error) {
	return e.c.Query(id, items)
}

func (e *wireEdge) status(id string) (*client.SessionStatus, error) {
	st, err := e.c.Status(id)
	var ae *client.APIError
	if errors.As(err, &ae) && ae.Code == server.CodeNotFound {
		return nil, errNotFound
	}
	return st, err
}

func (e *wireEdge) remove(id string) error { return e.c.Delete(id) }
func (e *wireEdge) close() error           { return e.c.Close() }

// httpEdge is JSON over net/http with one keep-alive connection.
type httpEdge struct {
	base   string
	tenant string
	tr     *http.Transport
	c      *http.Client
}

func dialHTTP(addr, tenant string, dial dialFunc) *httpEdge {
	tr := &http.Transport{
		DialContext: func(_ context.Context, _, addr string) (net.Conn, error) {
			return dial(addr)
		},
		MaxIdleConnsPerHost: 1,
		MaxConnsPerHost:     1,
		DisableCompression:  true,
	}
	return &httpEdge{base: "http://" + addr, tenant: tenant, tr: tr, c: &http.Client{Transport: tr}}
}

// do sends one request and decodes a JSON response into out (nil skips
// the body). A status other than want is an error; 404 is errNotFound.
func (e *httpEdge) do(method, path string, in, out any, want int) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, e.base+path, body)
	if err != nil {
		return err
	}
	req.Header.Set(server.TenantHeader, e.tenant)
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := e.c.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return fmt.Errorf("%s %s: reading response: %w", method, path, err)
	}
	switch {
	case resp.StatusCode == http.StatusNotFound:
		return errNotFound
	case resp.StatusCode != want:
		return fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(data))
	case out != nil:
		if err := json.Unmarshal(data, out); err != nil {
			return fmt.Errorf("%s %s: decoding response: %w", method, path, err)
		}
	}
	return nil
}

func (e *httpEdge) create(p client.CreateParams) (string, error) {
	var cr client.CreateResponse
	err := e.do(http.MethodPost, "/v1/sessions", p, &cr, http.StatusCreated)
	return cr.ID, err
}

func (e *httpEdge) query(id string, items []client.QueryItem) (*client.BatchResult, error) {
	var br client.BatchResult
	in := struct {
		Queries []client.QueryItem `json:"queries"`
	}{items}
	if err := e.do(http.MethodPost, "/v1/sessions/"+id+"/query", in, &br, http.StatusOK); err != nil {
		return nil, err
	}
	return &br, nil
}

func (e *httpEdge) status(id string) (*client.SessionStatus, error) {
	var st client.SessionStatus
	if err := e.do(http.MethodGet, "/v1/sessions/"+id, nil, &st, http.StatusOK); err != nil {
		return nil, err
	}
	return &st, nil
}

func (e *httpEdge) remove(id string) error {
	return e.do(http.MethodDelete, "/v1/sessions/"+id, nil, nil, http.StatusNoContent)
}

func (e *httpEdge) close() error {
	e.tr.CloseIdleConnections()
	return nil
}
