package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"time"

	"repro/internal/evalcache"
	"repro/internal/gateway"
	"repro/internal/incident"
	"repro/internal/llm/backend"
	"repro/internal/session"
	"repro/internal/websim"
)

// worldSeed is the seed every session's world is generated from. The
// benchmark's own --seed only shapes the requests.
const worldSeed = 42

// backends is the number of backend nodes behind the gateway, as in
// websimd -gateway -spawn 2.
const backends = 2

// deployConfig is what differs between the workloads' deployments.
type deployConfig struct {
	capacity   int           // per-backend session capacity (ManagerConfig.Capacity)
	webLatency time.Duration // the sessions' simulated web latency per request
	// incidentWorkers > 0 mounts the incident API on every backend with
	// a running Processor of that many workers.
	incidentWorkers int
	// stub is the llmstub binary; when set it is started with
	// stubLatency and the remote backend is pointed at it.
	stub        string
	stubLatency time.Duration
}

// node is one backend: a session manager serving session.Handler (plus
// the incident extension) and the simulated web on a loopback port.
type node struct {
	mgr   *session.Manager
	store *incident.Store
	proc  *incident.Processor
	srv   *server
}

// deployment is the topology websimd -gateway -spawn 2 starts, in one
// process: a gateway in front of two backends sharing one snapshot
// directory.
type deployment struct {
	dir   string
	gw    *gateway.Gateway
	gwSrv *server
	url   string
	nodes []*node
	stub  *exec.Cmd

	stopProcs context.CancelFunc
	procs     sync.WaitGroup
}

// server is an http.Server on a loopback listener.
type server struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

func serve(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		addr: ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(s.done)
		_ = s.srv.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return s, nil
}

func (s *server) close() {
	_ = s.srv.Close()
	<-s.done
}

// deploy starts the gateway, the backends and (when configured) llmstub.
// With a tracer, the gateway and every backend's session handler record
// handler spans, and the sessions' web records its waits.
func deploy(cfg deployConfig, dir string, tr *tracer) (d *deployment, err error) {
	d = &deployment{dir: dir}
	defer func() {
		if err != nil {
			d.close()
			d = nil
		}
	}()
	if cfg.stub != "" {
		endpoint, err := d.startStub(cfg.stub, cfg.stubLatency)
		if err != nil {
			return d, err
		}
		os.Setenv(backend.EnvEndpoint, endpoint)
	}
	snapshots := filepath.Join(dir, "snapshots")
	if err := os.MkdirAll(snapshots, 0o755); err != nil {
		return d, err
	}
	web := websim.Options{Latency: cfg.webLatency}
	if tr != nil {
		web.Clock = webClock{t: tr}
	}
	defaults := session.Config{Seed: worldSeed, WebOptions: web}
	procCtx, stop := context.WithCancel(context.Background())
	d.stopProcs = stop
	var addrs []string
	for i := 0; i < backends; i++ {
		n := &node{mgr: session.NewManager(session.ManagerConfig{
			Capacity:    cfg.capacity,
			SnapshotDir: snapshots,
			Defaults:    defaults,
		})}
		d.nodes = append(d.nodes, n)
		var exts []session.Extension
		if cfg.incidentWorkers > 0 {
			// websimd points every backend's store at the shared
			// <snapshots>/incidents.json; each gets its own file here
			// so the backends do not overwrite each other's queue.
			n.store = incident.NewStore(incident.StoreConfig{
				Path: filepath.Join(dir, fmt.Sprintf("incidents-%d.json", i)),
			})
			n.proc = incident.NewProcessor(n.store, n.mgr, incident.ProcessorConfig{
				Workers:  cfg.incidentWorkers,
				MaxTurns: 4,
				Session:  defaults,
			})
			d.procs.Add(1)
			go func() {
				defer d.procs.Done()
				n.proc.Run(procCtx)
			}()
			exts = append(exts, &incident.API{Store: n.store, Proc: n.proc})
		}
		var agents http.Handler = session.Handler(n.mgr, exts...)
		if tr != nil {
			agents = tr.middleware(spanBackend, agents)
		}
		mux := http.NewServeMux()
		mux.Handle("/v1/", agents)
		mux.Handle("/", websim.Handler(evalcache.Engine(worldSeed, websim.Options{})))
		if n.srv, err = serve(mux); err != nil {
			return d, err
		}
		addrs = append(addrs, n.srv.addr)
	}
	d.gw = gateway.New(gateway.Config{HealthInterval: 2 * time.Second}, addrs)
	var front http.Handler = d.gw
	if tr != nil {
		front = tr.middleware(spanGateway, front)
	}
	if d.gwSrv, err = serve(front); err != nil {
		return d, err
	}
	d.url = "http://" + d.gwSrv.addr
	return d, nil
}

// startStub runs llmstub on a free loopback port and waits until it
// answers.
func (d *deployment) startStub(bin string, latency time.Duration) (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := ln.Addr().String()
	ln.Close()
	d.stub = exec.Command(bin, "-addr", addr, "-latency", latency.String())
	if err := d.stub.Start(); err != nil {
		d.stub = nil
		return "", fmt.Errorf("start llmstub: %w", err)
	}
	hc := &http.Client{Timeout: time.Second}
	for deadline := time.Now().Add(30 * time.Second); time.Now().Before(deadline); time.Sleep(20 * time.Millisecond) {
		if resp, err := hc.Get("http://" + addr + "/healthz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return "http://" + addr, nil
			}
		}
	}
	return "", errors.New("llmstub did not come up")
}

// close stops everything deploy started and waits for it to end.
func (d *deployment) close() {
	if d.gw != nil {
		d.gw.Close()
	}
	if d.gwSrv != nil {
		d.gwSrv.close()
	}
	if d.stopProcs != nil {
		d.stopProcs()
		d.procs.Wait()
	}
	for _, n := range d.nodes {
		if n.srv != nil {
			n.srv.close()
		}
		n.mgr.Shutdown()
	}
	if d.stub != nil {
		_ = d.stub.Process.Kill()
		_ = d.stub.Wait()
	}
}

// client is the load generator's HTTP side: at most conns connections to
// the gateway, an X-Request-ID on every request, and a client span per
// request when traced.
type client struct {
	base string
	hc   *http.Client
	tr   *tracer
}

func newClient(base string, conns int, tr *tracer) *client {
	return &client{
		base: base,
		tr:   tr,
		hc: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
			IdleConnTimeout:     time.Minute,
		}},
	}
}

func (c *client) close() { c.hc.CloseIdleConnections() }

// response is one completed request.
type response struct {
	status int
	body   []byte
	// head is when the status line and headers were parsed, done when
	// the body was read.
	head, done time.Time
}

// do sends one request and reads the whole response. A transport error
// is returned as an error; any HTTP status is returned as a response.
func (c *client) do(ctx context.Context, op opKind, method, path string, body []byte) (response, error) {
	var r response
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, bytes.NewReader(body))
	if err != nil {
		return r, err
	}
	id := reqSeq.Add(1)
	req.Header.Set("X-Request-ID", reqPrefix+strconv.FormatUint(id, 10))
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return r, err
	}
	r.head = time.Now()
	r.status = resp.StatusCode
	r.body, err = io.ReadAll(resp.Body)
	resp.Body.Close()
	r.done = time.Now()
	if c.tr != nil {
		c.tr.add(span{id: c.tr.newID(), req: id, kind: spanClient, op: op, start: c.tr.since(start), end: c.tr.since(r.done)})
	}
	return r, err
}

// stream opens a long-lived GET (the SSE event stream). The caller reads
// and closes the body, then calls the returned done func so the client
// span ends when the stream does.
func (c *client) stream(ctx context.Context, op opKind, path string) (*http.Response, func(), error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
	if err != nil {
		return nil, nil, err
	}
	id := reqSeq.Add(1)
	req.Header.Set("X-Request-ID", reqPrefix+strconv.FormatUint(id, 10))
	start := time.Now()
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, nil, err
	}
	done := func() {
		if c.tr != nil {
			c.tr.add(span{id: c.tr.newID(), req: id, kind: spanClient, op: op, start: c.tr.since(start), end: c.tr.since(time.Now())})
		}
	}
	return resp, done, nil
}
