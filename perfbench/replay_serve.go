package main

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"renaissance/internal/futures"
	"renaissance/internal/memdb"
	"renaissance/internal/netstack"
)

// chirpOp is one request of the chirper replay: a post by user, or a feed
// fetch, which half the time is issued again right away so that the second
// reply comes from the cache.
type chirpOp struct {
	fetch, refetch bool
	user           uint32
	msg            []byte
}

// serveReplay replays finagle-http (echo round trips) and finagle-chirper
// (posts and feed fetches through a memdb read-through cache, with
// futures on both sides) over loopback, from one goroutine holding
// one client connection. Every echo reply must carry the request bytes and
// every feed must equal the benchmark's own record of the user's posts.
type serveReplay struct {
	payloads [][]byte
	chirps   []chirpOp
	users    int

	calls, ok, retried atomic.Int64
	asyncNs, asyncN    atomic.Int64
	getNs, getN        atomic.Int64
	fills, usefulFills atomic.Int64
}

func newServeReplay(seed int64, scale float64) (replayer, error) {
	rng := newRand(seed, "serve")
	r := &serveReplay{users: 8}
	for i := 0; i < scaled(600, scale, 16); i++ {
		p := make([]byte, 8+rng.Intn(57))
		rng.Read(p)
		r.payloads = append(r.payloads, p)
	}
	for i := 0; i < scaled(400, scale, 16); i++ {
		op := chirpOp{user: uint32(rng.Intn(r.users))}
		if rng.Intn(4) == 0 {
			op.fetch, op.refetch = true, rng.Intn(2) == 0
		} else {
			op.msg = make([]byte, 4+rng.Intn(13))
			rng.Read(op.msg)
		}
		r.chirps = append(r.chirps, op)
	}
	return r, nil
}

// connect starts a server for svc and dials it with one pooled
// connection; its spans make up netstack.conn_setup_us.
func connect(root span, svc netstack.Service) (*netstack.Server, *netstack.Client, error) {
	var srv *netstack.Server
	var cli *netstack.Client
	var err error
	root.do(layerNetstack, "serve", func() { srv, err = netstack.Serve("127.0.0.1:0", svc) })
	if err != nil {
		return nil, nil, err
	}
	root.do(layerNetstack, "dial", func() { cli, err = netstack.Dial(srv.Addr(), 1) })
	if err != nil {
		srv.Close()
		return nil, nil, err
	}
	return srv, cli, nil
}

// disconnect closes the client and the server.
func disconnect(root span, srv *netstack.Server, cli *netstack.Client) error {
	var cerr, serr error
	root.do(layerNetstack, "close", func() {
		cerr = cli.Close()
		serr = srv.Close()
	})
	if cerr != nil {
		return cerr
	}
	return serr
}

// call is one synchronous round trip, counted toward netstack.ok_frac.
func (r *serveReplay) call(root span, cli *netstack.Client, req []byte) ([]byte, error) {
	shed, rejected := cli.Shed.Load(), cli.Rejected.Load()
	var resp []byte
	var err error
	root.do(layerNetstack, "call", func() { resp, err = cli.CallSync(req) })
	r.retried.Add(cli.Shed.Load() - shed + cli.Rejected.Load() - rejected)
	r.calls.Add(1)
	if err == nil {
		r.ok.Add(1)
	}
	return resp, err
}

func (r *serveReplay) iterate(root span) error {
	if err := r.echo(root); err != nil {
		return err
	}
	return r.chirper(root)
}

func (r *serveReplay) echo(root span) error {
	srv, cli, err := connect(root, func(req []byte) *futures.Future[[]byte] {
		return futures.Completed(append([]byte("OK:"), req...))
	})
	if err != nil {
		return err
	}
	for _, p := range r.payloads {
		resp, err := r.call(root, cli, p)
		if err != nil {
			disconnect(root, srv, cli)
			return err
		}
		if len(resp) != len(p)+3 || string(resp[:3]) != "OK:" || !bytes.Equal(resp[3:], p) {
			disconnect(root, srv, cli)
			return fmt.Errorf("serve: echo reply does not carry the request bytes")
		}
	}
	return disconnect(root, srv, cli)
}

// chirpService mirrors finagle-chirper's service: per-user feeds under a
// lock, a memdb read-through cache of assembled feeds, and futures.Async
// for cache misses. It runs on the server's goroutines, so it records the
// costs of memdb point reads and futures.Async in counters rather than
// spans.
type chirpService struct {
	r     *serveReplay
	mu    sync.Mutex
	feeds map[uint32][][]byte
	cache memdb.Store
	hit   map[string]bool // whether the current fill of a key has served a hit
}

func (s *chirpService) handle(req []byte) *futures.Future[[]byte] {
	if len(req) < 5 {
		return futures.Completed([]byte("ERR"))
	}
	user := binary.BigEndian.Uint32(req[1:5])
	key := string(req[1:5])
	if req[0] == 'P' {
		s.mu.Lock()
		s.feeds[user] = append(s.feeds[user], append([]byte(nil), req[5:]...))
		s.cache.Delete(key)
		s.mu.Unlock()
		return futures.Completed([]byte("ACK"))
	}
	t0 := time.Now()
	v, ok := s.cache.Get(key)
	s.r.getNs.Add(int64(time.Since(t0)))
	s.r.getN.Add(1)
	if ok {
		s.mu.Lock()
		if !s.hit[key] {
			s.hit[key] = true
			s.r.usefulFills.Add(1)
		}
		s.mu.Unlock()
		return futures.Completed(v)
	}
	t0 = time.Now()
	f := futures.Async(func() ([]byte, error) {
		s.mu.Lock()
		defer s.mu.Unlock()
		out := feedBytes(s.feeds[user])
		s.cache.Put(key, out)
		s.hit[key] = false
		s.r.fills.Add(1)
		return out, nil
	})
	s.r.asyncNs.Add(int64(time.Since(t0)))
	s.r.asyncN.Add(1)
	return f
}

// feedBytes assembles a feed: the post count, then every post.
func feedBytes(posts [][]byte) []byte {
	out := binary.BigEndian.AppendUint32(nil, uint32(len(posts)))
	for _, m := range posts {
		out = append(out, m...)
	}
	return out
}

func (r *serveReplay) chirper(root span) error {
	svc := &chirpService{r: r, feeds: map[uint32][][]byte{}, cache: memdb.NewShardedHash(16), hit: map[string]bool{}}
	srv, cli, err := connect(root, svc.handle)
	if err != nil {
		return err
	}
	err = r.chirpOps(root, cli)
	if cerr := disconnect(root, srv, cli); err == nil {
		err = cerr
	}
	return err
}

func (r *serveReplay) chirpOps(root span, cli *netstack.Client) error {
	feeds := make([][][]byte, r.users)
	for _, op := range r.chirps {
		req := binary.BigEndian.AppendUint32([]byte{'P'}, op.user)
		if !op.fetch {
			req = append(req, op.msg...)
			resp, err := r.call(root, cli, req)
			if err != nil {
				return err
			}
			if string(resp) != "ACK" {
				return fmt.Errorf("serve: post not acknowledged: %q", resp)
			}
			feeds[op.user] = append(feeds[op.user], op.msg)
			continue
		}
		req[0] = 'F'
		want := feedBytes(feeds[op.user])
		first, err := r.call(root, cli, req)
		if err != nil {
			return err
		}
		if !bytes.Equal(first, want) {
			return fmt.Errorf("serve: user %d feed differs from its posts", op.user)
		}
		if !op.refetch {
			continue
		}
		// Fetch again with no post in between: the cached reply must match.
		var f *futures.Future[bool]
		ca := root.child(layerNetstack, "call_async")
		c := cli.Call(req)
		ca.do(layerFutures, "map", func() {
			f = futures.Map(c, func(resp []byte) bool { return bytes.Equal(resp, want) })
		})
		ca.end()
		var same bool
		root.do(layerFutures, "await", func() { same, err = f.Await() })
		r.calls.Add(1)
		if err != nil {
			return err
		}
		r.ok.Add(1)
		if !same {
			return fmt.Errorf("serve: user %d cached feed differs", op.user)
		}
	}
	return nil
}

func (r *serveReplay) layerMetrics(sum *traceSummary, out map[string]float64) {
	out["netstack.conn_setup_us"] = (sum.perRootNs(layerNetstack, "serve") +
		sum.perRootNs(layerNetstack, "dial") + sum.perRootNs(layerNetstack, "close")) / 1e3
	if n := r.calls.Load() + r.retried.Load(); n > 0 {
		out["netstack.ok_frac"] = float64(r.ok.Load()) / float64(n)
	}
	if n := r.asyncN.Load(); n > 0 {
		out["futures.async_us"] = float64(r.asyncNs.Load()) / float64(n) / 1e3
	}
	if n := r.getN.Load(); n > 0 {
		out["memdb.get_ns"] = float64(r.getNs.Load()) / float64(n)
	}
	out["futures.await_us"] = sum.meanNs(layerFutures, "await") / 1e3
	if n := r.fills.Load(); n > 0 {
		out["cache.hit_frac"] = float64(r.usefulFills.Load()) / float64(n)
	}
}
