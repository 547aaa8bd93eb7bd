// Package cluster is the control plane of the N-rank runtime: a tiny TCP
// rendezvous/registry service plus the client every rank embeds. Ranks
// register their (rank, fabric, addr) tuple, block until all N arrived,
// fetch the full peer map, then heartbeat; the registry tracks per-rank
// liveness against a missed-heartbeat deadline, numbers every membership
// change with an epoch, and bans ranks that flap (repeated join/leave
// churn past a threshold). The client threads the registry's death
// verdicts down into the engine (core.Engine.MarkPeerDead), which is what
// turns a crashed peer from an eternal replay loop into requests that
// complete with core.ErrPeerDead (docs/CLUSTER.md).
//
// The wire protocol is deliberately primitive — one newline-delimited
// JSON request per connection, one JSON reply — because the registry is
// off the data path entirely: it only ever carries joins and heartbeats.
package cluster

import (
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Protocol defaults; Config overrides them.
const (
	// DefaultHeartbeatInterval is how often each rank beats.
	DefaultHeartbeatInterval = 100 * time.Millisecond
	// missedHeartbeats is how many intervals of silence cost a rank its
	// liveness: deadline = interval × missed.
	missedHeartbeats = 3
	// defaultFlapLimit is how many joins one rank may perform before the
	// registry bans it — a rank that keeps crashing and rejoining churns
	// every survivor's membership view for no benefit.
	defaultFlapLimit = 4
	// DefaultJoinTimeout bounds how long a join waits for the world to
	// form before giving up.
	DefaultJoinTimeout = 30 * time.Second
)

// request is one client→registry message.
type request struct {
	Op     string `json:"op"` // "join", "heartbeat", "leave"
	Rank   int    `json:"rank"`
	Nranks int    `json:"nranks,omitempty"`
	Fabric string `json:"fabric,omitempty"`
	Addr   string `json:"addr,omitempty"`
}

// response is one registry→client reply.
type response struct {
	OK    bool   `json:"ok"`
	Error string `json:"error,omitempty"`
	Epoch uint64 `json:"epoch,omitempty"`
	Peers []Peer `json:"peers,omitempty"`
	Dead  []int  `json:"dead,omitempty"`
}

// Peer is one registered rank's contact tuple, as returned by Join.
type Peer struct {
	// Rank is the peer's rank in the world.
	Rank int `json:"rank"`
	// Fabric names the transport the address belongs to (e.g. "tcp").
	Fabric string `json:"fabric"`
	// Addr is the peer's dialable endpoint address.
	Addr string `json:"addr"`
}

// Config parameterizes a Registry.
type Config struct {
	// Nranks is the world size: joins block until this many distinct
	// ranks have registered.
	Nranks int
	// Listen is the TCP address to serve on; empty means "127.0.0.1:0".
	Listen string
	// HeartbeatInterval is the expected beat cadence (zero selects
	// DefaultHeartbeatInterval); the liveness deadline derives from it.
	HeartbeatInterval time.Duration
	// flapLimit bans a rank after this many joins (zero selects
	// defaultFlapLimit; negative disables banning). Only this package's
	// tests set another value.
	flapLimit int
}

// member is one rank's registration state.
type member struct {
	peer     Peer
	lastBeat time.Time
	joins    int
}

// Registry is the rendezvous/liveness service. One per world; ranks
// reach it over TCP via Join/the Client.
type Registry struct {
	cfg Config
	ln  net.Listener

	mu      sync.Mutex
	members map[int]*member
	dead    map[int]bool
	banned  map[int]bool
	formed  chan struct{} // closed once all Nranks joined
	epoch   atomic.Uint64

	closed atomic.Bool
	wg     sync.WaitGroup
}

// NewRegistry starts a registry for a world of cfg.Nranks ranks. Close
// releases the listener and the liveness sweeper.
func NewRegistry(cfg Config) (*Registry, error) {
	if cfg.Nranks <= 0 {
		return nil, fmt.Errorf("cluster: registry needs a positive world size, got %d", cfg.Nranks)
	}
	if cfg.Listen == "" {
		cfg.Listen = "127.0.0.1:0"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.flapLimit == 0 {
		cfg.flapLimit = defaultFlapLimit
	}
	ln, err := net.Listen("tcp", cfg.Listen)
	if err != nil {
		return nil, fmt.Errorf("cluster: registry listen: %w", err)
	}
	r := &Registry{
		cfg:     cfg,
		ln:      ln,
		members: make(map[int]*member),
		dead:    make(map[int]bool),
		banned:  make(map[int]bool),
		formed:  make(chan struct{}),
	}
	r.wg.Add(2)
	go r.serve()
	go r.sweep()
	return r, nil
}

// Addr returns the registry's dialable address.
func (r *Registry) Addr() string { return r.ln.Addr().String() }

// Epoch returns the current membership epoch: 0 until the world formed,
// bumped on every membership change afterwards (formation, death,
// revival, ban).
func (r *Registry) Epoch() uint64 { return r.epoch.Load() }

// Snapshot returns the current epoch, the count of registered live
// ranks, and the sorted dead set — the registry-side view nmtop and the
// tests assert against.
func (r *Registry) Snapshot() (epoch uint64, alive int, dead []int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	for rank := range r.dead {
		dead = append(dead, rank)
	}
	sort.Ints(dead)
	return r.epoch.Load(), len(r.members) - len(dead), dead
}

// Close stops the registry: the listener closes (joins in flight fail)
// and the sweeper exits.
func (r *Registry) Close() {
	if !r.closed.CompareAndSwap(false, true) {
		return
	}
	r.ln.Close()
	r.wg.Wait()
}

// serve accepts one short-lived connection per request.
func (r *Registry) serve() {
	defer r.wg.Done()
	for {
		c, err := r.ln.Accept()
		if err != nil {
			return
		}
		go r.handle(c)
	}
}

// handle decodes one request, dispatches it, writes one reply.
func (r *Registry) handle(c net.Conn) {
	defer c.Close()
	c.SetReadDeadline(time.Now().Add(10 * time.Second))
	var req request
	if err := json.NewDecoder(c).Decode(&req); err != nil {
		return
	}
	var resp response
	switch req.Op {
	case "join":
		resp = r.join(req)
	case "heartbeat":
		resp = r.heartbeat(req)
	case "leave":
		resp = r.leave(req)
	default:
		resp = response{Error: fmt.Sprintf("unknown op %q", req.Op)}
	}
	c.SetWriteDeadline(time.Now().Add(10 * time.Second))
	json.NewEncoder(c).Encode(resp)
}

// bumpEpoch numbers a membership change; caller holds mu (or is the
// formation path, which holds it too).
func (r *Registry) bumpEpoch() { r.epoch.Add(1) }

// join registers (or re-registers) a rank and blocks until the world has
// formed, then replies with the full peer map. A rejoin past the flap
// limit is banned: the rank stays dead and every further join is
// refused.
func (r *Registry) join(req request) response {
	if req.Rank < 0 || req.Rank >= r.cfg.Nranks {
		return response{Error: fmt.Sprintf("rank %d out of range [0,%d)", req.Rank, r.cfg.Nranks)}
	}
	if req.Nranks != 0 && req.Nranks != r.cfg.Nranks {
		return response{Error: fmt.Sprintf("world size mismatch: registry has %d, rank asked %d", r.cfg.Nranks, req.Nranks)}
	}
	r.mu.Lock()
	if r.banned[req.Rank] {
		r.mu.Unlock()
		return response{Error: fmt.Sprintf("rank %d is banned (join/leave churn exceeded %d joins)", req.Rank, r.cfg.flapLimit)}
	}
	m := r.members[req.Rank]
	if m == nil {
		m = &member{joins: 1}
		r.members[req.Rank] = m
	} else {
		// Rejoin: a respawned (or flapping) incarnation of a known rank.
		m.joins++
		if r.cfg.flapLimit > 0 && m.joins > r.cfg.flapLimit {
			r.banned[req.Rank] = true
			if !r.dead[req.Rank] {
				r.dead[req.Rank] = true
			}
			r.bumpEpoch()
			r.mu.Unlock()
			return response{Error: fmt.Sprintf("rank %d is banned (join/leave churn exceeded %d joins)", req.Rank, r.cfg.flapLimit)}
		}
		if r.dead[req.Rank] {
			// Revival: the respawned rank rejoins the membership.
			delete(r.dead, req.Rank)
			r.bumpEpoch()
		}
	}
	m.peer = Peer{Rank: req.Rank, Fabric: req.Fabric, Addr: req.Addr}
	m.lastBeat = time.Now()
	formed := r.formed
	if len(r.members) == r.cfg.Nranks {
		select {
		case <-formed:
			// Already formed (a rejoin).
		default:
			close(formed)
			r.bumpEpoch()
		}
	}
	r.mu.Unlock()

	select {
	case <-formed:
	case <-time.After(DefaultJoinTimeout):
		return response{Error: fmt.Sprintf("world did not form within %v", DefaultJoinTimeout)}
	}

	r.mu.Lock()
	defer r.mu.Unlock()
	peers := make([]Peer, 0, len(r.members))
	for _, mm := range r.members {
		peers = append(peers, mm.peer)
	}
	sort.Slice(peers, func(i, j int) bool { return peers[i].Rank < peers[j].Rank })
	return response{OK: true, Epoch: r.epoch.Load(), Peers: peers}
}

// heartbeat refreshes a rank's liveness and replies with the epoch and
// the current dead set — the piggybacked failure notification every
// client diffs against its last view.
func (r *Registry) heartbeat(req request) response {
	r.mu.Lock()
	defer r.mu.Unlock()
	m := r.members[req.Rank]
	if m == nil {
		return response{Error: fmt.Sprintf("rank %d never joined", req.Rank)}
	}
	if !r.dead[req.Rank] {
		m.lastBeat = time.Now()
	}
	dead := make([]int, 0, len(r.dead))
	for rank := range r.dead {
		dead = append(dead, rank)
	}
	sort.Ints(dead)
	return response{OK: true, Epoch: r.epoch.Load(), Dead: dead}
}

// leave is the graceful exit: the rank is marked dead immediately (no
// deadline wait) so survivors learn on their next beat.
func (r *Registry) leave(req request) response {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.members[req.Rank] == nil {
		return response{Error: fmt.Sprintf("rank %d never joined", req.Rank)}
	}
	if !r.dead[req.Rank] {
		r.dead[req.Rank] = true
		r.bumpEpoch()
	}
	return response{OK: true}
}

// sweep is the liveness detector: a rank whose last beat is older than
// interval×missed is declared dead and the epoch advances. It only
// judges ranks after the world formed — before that, joins are still
// trickling in and nobody owes heartbeats yet.
func (r *Registry) sweep() {
	defer r.wg.Done()
	deadline := r.cfg.HeartbeatInterval * missedHeartbeats
	tick := time.NewTicker(r.cfg.HeartbeatInterval / 2)
	defer tick.Stop()
	for !r.closed.Load() {
		<-tick.C
		select {
		case <-r.formed:
		default:
			continue
		}
		now := time.Now()
		r.mu.Lock()
		for rank, m := range r.members {
			if r.dead[rank] || now.Sub(m.lastBeat) <= deadline {
				continue
			}
			r.dead[rank] = true
			r.bumpEpoch()
		}
		r.mu.Unlock()
	}
}
