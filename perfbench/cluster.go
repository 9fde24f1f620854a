package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"luf/internal/cert"
	"luf/internal/client"
	"luf/internal/group"
	"luf/internal/replica"
	"luf/internal/server"
	"luf/internal/shard"
	"luf/internal/wal"
)

// node is one lufd server on a stable loopback listener. The handler
// behind the listener can be swapped, so a node is killed and reopened
// from its directory at the same URL.
type node struct {
	name string
	dir  string
	url  string
	ln   net.Listener
	hs   *http.Server
	cfg  server.Config
	srv  atomic.Pointer[server.Server]
	h    atomic.Pointer[http.Handler]
	done chan struct{}
}

var downHandler http.Handler = http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
	http.Error(w, "down", http.StatusServiceUnavailable)
})

// listen reserves the node's listener and serves 503s until start.
func listen(t *tracer, name, dir string) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	n := &node{name: name, dir: dir, ln: ln, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	n.h.Store(&downHandler)
	n.hs = &http.Server{Handler: t.wrap(name, http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		(*n.h.Load()).ServeHTTP(w, r)
	}))}
	go func() {
		defer close(n.done)
		_ = n.hs.Serve(ln) // returns http.ErrServerClosed on close
	}()
	return n, nil
}

// start opens a server over the node's directory and serves it.
func (n *node) start(cfg server.Config) error {
	cfg.Dir, cfg.NodeName, cfg.Advertise = n.dir, n.name, n.url
	s, _, err := server.New(cfg)
	if err != nil {
		return fmt.Errorf("start %s: %w", n.name, err)
	}
	n.cfg = cfg
	n.srv.Store(s)
	h := s.Handler()
	n.h.Store(&h)
	return nil
}

// kill crashes the node's server (no drain, no snapshot) and serves 503s.
func (n *node) kill() {
	n.h.Store(&downHandler)
	if s := n.srv.Swap(nil); s != nil {
		s.Kill()
		_ = s.Store().Close() // the crash stand-in leaves the journal open
	}
}

// close kills the node and stops its listener.
func (n *node) close() {
	n.kill()
	_ = n.hs.Close()
	<-n.done
}

func (n *node) server() *server.Server { return n.srv.Load() }

// shardGroup is one replica group: a primary and an optional follower.
type shardGroup struct {
	primary, follower *node
}

// cluster is a workload's topology: shard groups on loopback listeners
// plus a coordinator over them. Group 0 is the group every single-group
// op talks to.
type cluster struct {
	root   string
	tr     *tracer
	groups []shardGroup
	m      shard.Map
	coord  *shard.Coordinator
	cnode  *node // the coordinator's listener
	names  map[string]string
}

// group0Dirs are the directories of group 0's nodes under a cluster
// root; a workload with history copies its journal there before start.
var group0Dirs = []string{"g0p", "g0f"}

// startCluster builds the workload's topology under root: every node
// opens (and recovers) whatever journal its directory holds. It returns
// once every follower's durable_seq matches its primary's.
func startCluster(ctx context.Context, w *workload, t *tracer, root string) (*cluster, error) {
	c := &cluster{root: root, tr: t, names: map[string]string{}}
	if err := c.build(ctx, w); err != nil {
		c.close()
		return nil, err
	}
	return c, nil
}

func (c *cluster) build(ctx context.Context, w *workload) error {
	for gi := 0; gi < w.groups; gi++ {
		name := fmt.Sprintf("g%d", gi)
		p, err := listen(c.tr, name+"p", filepath.Join(c.root, name+"p"))
		if err != nil {
			return err
		}
		g := shardGroup{primary: p}
		nodes := []string{p.url}
		if gi == 0 && w.follow {
			if g.follower, err = listen(c.tr, name+"f", filepath.Join(c.root, name+"f")); err != nil {
				p.close()
				return err
			}
			nodes = append(nodes, g.follower.url)
		}
		c.groups = append(c.groups, g)
		c.m.Groups = append(c.m.Groups, shard.Group{Name: name, Nodes: nodes})
	}
	for _, g := range c.groups {
		for _, n := range []*node{g.primary, g.follower} {
			if n != nil {
				c.names[n.ln.Addr().String()] = n.name
			}
		}
	}
	// Nodes are separate machines in production: open them in parallel.
	var wg sync.WaitGroup
	errs := make([]error, 2*len(c.groups))
	for gi, g := range c.groups {
		wg.Add(1)
		go func(gi int, g shardGroup) {
			defer wg.Done()
			cfg := primaryConfig()
			if g.follower != nil {
				cfg.Peers = []replica.Peer{{Name: g.follower.name, URL: g.follower.url}}
				cfg.SyncReplication = true
			}
			errs[2*gi] = g.primary.start(cfg)
		}(gi, g)
		if g.follower != nil {
			wg.Add(1)
			go func(gi int, g shardGroup) {
				defer wg.Done()
				errs[2*gi+1] = g.follower.start(server.Config{Role: server.RoleFollower,
					Peers: []replica.Peer{{Name: g.primary.name, URL: g.primary.url}}, Seed: 2})
			}(gi, g)
		}
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return err
	}
	cn, err := listen(c.tr, "coord", filepath.Join(c.root, "coord"))
	if err != nil {
		return err
	}
	c.cnode = cn
	c.names[cn.ln.Addr().String()] = cn.name
	c.coord, err = shard.New(shard.Config{
		Dir: cn.dir, Map: c.m, Advertise: cn.url, Dial: client.DialGroup,
		PrepareTTL: time.Second, RedriveInterval: 10 * time.Millisecond,
	})
	if err != nil {
		return err
	}
	var h http.Handler = shard.NewHandler(c.coord)
	cn.h.Store(&h)
	return c.waitCaughtUp(ctx)
}

// primaryConfig is every primary's configuration: durable, no automatic
// snapshots (so a reopen replays the whole journal), and a lease long
// enough that a busy box never loses it mid-run.
func primaryConfig() server.Config {
	return server.Config{LeaseTTL: 30 * time.Second, Seed: 1}
}

// waitCaughtUp waits until each follower's durable_seq equals its
// primary's.
func (c *cluster) waitCaughtUp(ctx context.Context) error {
	for _, g := range c.groups {
		if g.follower == nil {
			continue
		}
		want := g.primary.server().Store().DurableSeq()
		err := waitFor(ctx, time.Minute, func() bool {
			return g.follower.server().Store().DurableSeq() >= want
		})
		if err != nil {
			return fmt.Errorf("follower %s catch-up: %w", g.follower.name, err)
		}
	}
	return nil
}

// nodeName maps a host:port to the node's name.
func (c *cluster) nodeName(host string) string {
	if n, ok := c.names[host]; ok {
		return n
	}
	return host
}

func (c *cluster) close() {
	if c.coord != nil {
		_ = c.coord.Close()
	}
	if c.cnode != nil {
		c.cnode.close()
	}
	for _, g := range c.groups {
		for _, n := range []*node{g.primary, g.follower} {
			if n != nil {
				n.close()
			}
		}
	}
}

// waitFor polls cond every millisecond until it holds or d passes.
func waitFor(ctx context.Context, d time.Duration, cond func() bool) error {
	deadline := time.Now().Add(d)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("condition not met within %v", d)
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(time.Millisecond):
		}
	}
	return nil
}

// copyDir copies every regular file of src into dst (created).
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		if err := copyFile(filepath.Join(src, e.Name()), filepath.Join(dst, e.Name())); err != nil {
			return err
		}
	}
	return nil
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}

// writeHistory journals the history into a fresh store at dir, as the
// primary would have written it, in fsynced batches.
func writeHistory(dir string, hist []cert.Entry[string, int64]) error {
	st, _, err := wal.Open(dir, group.Delta{}, wal.DeltaCodec{}, wal.Options{})
	if err != nil {
		return err
	}
	var last uint64
	for i, e := range hist {
		seq, err := st.Append(e)
		if err != nil {
			st.Close()
			return fmt.Errorf("history record %d: %w", i, err)
		}
		if seq > 0 {
			last = seq
		}
		if (i+1)%4096 == 0 {
			if err := st.Commit(last); err != nil {
				st.Close()
				return err
			}
		}
	}
	if err := st.Commit(last); err != nil {
		st.Close()
		return err
	}
	return st.Close()
}
