package mpi

import (
	"fmt"
	"os"
	"strconv"
	"sync/atomic"
	"time"

	"pioman/internal/cluster"
	"pioman/internal/fabric/shmfab"
	"pioman/internal/fabric/tcpfab"
	"pioman/internal/fabric/udpfab"
	"pioman/internal/nic"
)

// Environment contract between cmd/nmrun and cluster-launched binaries.
// nmrun exports these to every child; JoinCluster reads them. A binary
// can also be launched by hand against a standalone registry by setting
// them in the shell.
const (
	// EnvRank is this process's rank.
	EnvRank = "PIOMAN_RANK"
	// EnvNranks is the world size.
	EnvNranks = "PIOMAN_NRANKS"
	// EnvRegistry is the registry's TCP address.
	EnvRegistry = "PIOMAN_REGISTRY"
	// EnvHostRegistry, when "1", makes this rank embed the registry
	// (listening on EnvRegistry) before joining it — nmrun's default
	// mode, where rank 0 hosts the control plane.
	EnvHostRegistry = "PIOMAN_HOST_REGISTRY"
	// EnvRegistryRank names the rank whose process hosts the registry
	// (default 0); "-1" declares the registry standalone, so losing it
	// kills nobody.
	EnvRegistryRank = "PIOMAN_REGISTRY_RANK"
	// EnvHeartbeatMS overrides the heartbeat interval in milliseconds.
	EnvHeartbeatMS = "PIOMAN_HEARTBEAT_MS"
	// EnvPeerDeadlineMS overrides Config.PeerDeadline in milliseconds —
	// how nmrun arms engine-side death detection without the binary's
	// cooperation.
	EnvPeerDeadlineMS = "PIOMAN_PEER_DEADLINE_MS"
	// EnvFabric names the transport every rank opens: "tcp" (the
	// default), "udp", "shm", or "tcp+shm" — a tcp rail bonded with an
	// shm rail, the paper's MX + shared-memory configuration (§4.3).
	EnvFabric = "PIOMAN_FABRIC"
	// EnvShmDir is the ring directory the shm fabrics share; it must be
	// fresh for the run.
	EnvShmDir = "PIOMAN_SHM_DIR"
)

// ClusterWorld is one rank of a multi-process world launched through the
// cluster registry (typically by cmd/nmrun): a distributed World over
// the fabric EnvFabric names, plus the registry client whose death
// verdicts feed the engine, plus — on the hosting rank — the embedded
// registry itself.
type ClusterWorld struct {
	*World
	// Rank is this process's rank.
	Rank int
	// Fabric is the EnvFabric transport the world runs over.
	Fabric string
	// Client is the live registry session (heartbeating once Start ran).
	Client *cluster.Client
	// Registry is non-nil only on the rank that embeds the control
	// plane (EnvHostRegistry).
	Registry *cluster.Registry

	node      *Node
	deadRanks atomic.Uint64 // current count of ranks the client saw die
	deaths    atomic.Uint64 // cumulative death verdicts applied
}

// envInt parses an integer environment variable, returning def when the
// variable is unset and an error when it is set but malformed.
func envInt(name string, def int) (int, error) {
	s, ok := os.LookupEnv(name)
	if !ok || s == "" {
		return def, nil
	}
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("mpi: %s=%q is not an integer", name, s)
	}
	return v, nil
}

// JoinCluster assembles this process's rank of a multi-process cluster
// from the nmrun environment contract: embed the registry when this rank
// hosts it, open the EnvFabric endpoints (tcp and udp on an ephemeral
// loopback port, shm on the EnvShmDir rings), register with the
// registry, learn every peer's address from the formed world, and start
// heartbeating. Registry death verdicts flow straight into the
// engine — a rank the registry declares dead gets MarkPeerDead, so every
// pending request toward it completes with core.ErrPeerDead; a respawned
// rank gets MarkPeerAlive. The cfg is the usual world Config; Nodes and
// Fabrics are taken over by the environment.
func JoinCluster(cfg Config) (*ClusterWorld, error) {
	rank, err := envInt(EnvRank, -1)
	if err != nil {
		return nil, err
	}
	nranks, err2 := envInt(EnvNranks, 0)
	if err2 != nil {
		return nil, err2
	}
	registryAddr := os.Getenv(EnvRegistry)
	if rank < 0 || nranks <= 0 || registryAddr == "" {
		return nil, fmt.Errorf("mpi: cluster environment incomplete (%s=%d %s=%d %s=%q); launch through cmd/nmrun or export the contract by hand",
			EnvRank, rank, EnvNranks, nranks, EnvRegistry, registryAddr)
	}
	hostRank, err3 := envInt(EnvRegistryRank, 0)
	if err3 != nil {
		return nil, err3
	}
	hbMS, err4 := envInt(EnvHeartbeatMS, 0)
	if err4 != nil {
		return nil, err4
	}
	heartbeat := cluster.DefaultHeartbeatInterval
	if hbMS > 0 {
		heartbeat = time.Duration(hbMS) * time.Millisecond
	}
	if dlMS, err := envInt(EnvPeerDeadlineMS, 0); err != nil {
		return nil, err
	} else if dlMS > 0 {
		cfg.PeerDeadline = time.Duration(dlMS) * time.Millisecond
	}
	fab, shmDir := os.Getenv(EnvFabric), os.Getenv(EnvShmDir)
	switch fab {
	case "":
		fab = "tcp"
	case "tcp", "udp":
	case "shm", "tcp+shm":
		if shmDir == "" {
			return nil, fmt.Errorf("mpi: %s=%s needs %s, the run's fresh ring directory", EnvFabric, fab, EnvShmDir)
		}
	default:
		return nil, fmt.Errorf("mpi: %s=%q: known fabrics are tcp, udp, shm and tcp+shm", EnvFabric, fab)
	}

	cw := &ClusterWorld{Rank: rank, Fabric: fab}
	if os.Getenv(EnvHostRegistry) == "1" {
		reg, err := cluster.NewRegistry(cluster.Config{
			Nranks:            nranks,
			Listen:            registryAddr,
			HeartbeatInterval: heartbeat,
		})
		if err != nil {
			return nil, err
		}
		cw.Registry = reg
	}

	rails, addr, setPeerAddr, err := openRails(fab, rank, nranks, shmDir)
	if err != nil {
		cw.closePartial()
		return nil, fmt.Errorf("mpi: rank %d %s endpoint: %w", rank, fab, err)
	}
	client, peers, _, err := cluster.Join(registryAddr, rank, nranks, fab, addr, 0)
	if err == nil {
		for _, p := range peers {
			if p.Fabric != fab {
				client.Close()
				err = fmt.Errorf("mpi: rank %d joined over %s, rank %d over %s", rank, fab, p.Rank, p.Fabric)
				break
			}
		}
	}
	if err != nil {
		for _, r := range rails {
			r.Ep.Close()
		}
		cw.closePartial()
		return nil, err
	}
	cw.Client = client
	for _, p := range peers {
		if p.Rank != rank && setPeerAddr != nil {
			setPeerAddr(p.Rank, p.Addr)
		}
	}

	cw.World = NewDistributedBonded(cfg, rails)
	cw.node = cw.World.Node(rank)
	eng := cw.node.Eng
	client.SetHostRank(hostRank)
	client.Start(heartbeat, func(dead int) {
		eng.MarkPeerDead(dead)
		cw.deadRanks.Add(1)
		cw.deaths.Add(1)
	}, func(alive int) {
		eng.MarkPeerAlive(alive)
		cw.deadRanks.Add(^uint64(0))
	})

	if cfg.Metrics != nil {
		p := fmt.Sprintf("node%d.cluster", rank)
		cfg.Metrics.RegisterGauge(p+".epoch", "membership epoch last observed from the registry", client.Epoch)
		cfg.Metrics.RegisterGauge(p+".alive", "peer ranks currently believed alive", func() uint64 {
			return uint64(nranks) - 1 - cw.deadRanks.Load()
		})
		cfg.Metrics.RegisterCounter(p+".deaths", "registry death verdicts applied to the engine", cw.deaths.Load)
	}
	return cw, nil
}

// openRails opens this rank's endpoints for fabric fab: the rails of its
// world, the address it registers (empty for shm, whose rings need
// none), and how it learns a peer's registered address (nil for shm).
func openRails(fab string, rank, nranks int, shmDir string) ([]Rail, string, func(rank int, addr string), error) {
	if fab == "udp" {
		ep, err := udpfab.New(udpfab.Config{Self: rank, Nodes: nranks, Listen: "127.0.0.1:0"})
		if err != nil {
			return nil, "", nil, err
		}
		return []Rail{{Params: nic.UdpParams(), Ep: ep}}, ep.Addr().String(), ep.SetPeerAddr, nil
	}
	var (
		rails       []Rail
		addr        string
		setPeerAddr func(int, string)
	)
	if fab != "shm" {
		ep, err := tcpfab.New(tcpfab.Config{Self: rank, Nodes: nranks, Listen: "127.0.0.1:0"})
		if err != nil {
			return nil, "", nil, err
		}
		tcp := nic.RealParams()
		if fab == "tcp+shm" {
			tcp.Name = "tcp" // named after its transport beside the shm rail
		}
		rails = append(rails, Rail{Params: tcp, Ep: ep})
		addr, setPeerAddr = ep.Addr().String(), ep.SetPeerAddr
	}
	if fab != "tcp" {
		ep, err := shmfab.New(shmfab.Config{Self: rank, Nodes: nranks, Dir: shmDir})
		if err != nil {
			for _, r := range rails {
				r.Ep.Close()
			}
			return nil, "", nil, err
		}
		rails = append(rails, Rail{Params: nic.ShmParams(), Ep: ep})
	}
	return rails, addr, setPeerAddr, nil
}

// Self returns this process's node.
func (cw *ClusterWorld) Self() *Node { return cw.node }

// closePartial tears down whatever JoinCluster built before failing.
func (cw *ClusterWorld) closePartial() {
	if cw.Registry != nil {
		cw.Registry.Close()
	}
}

// Close leaves the cluster gracefully (so survivors learn immediately
// instead of after the liveness deadline), closes the world, then — on
// the hosting rank — stops the registry last, giving survivors' final
// leaves somewhere to land.
func (cw *ClusterWorld) Close() {
	if cw.Client != nil {
		cw.Client.Close()
	}
	if cw.World != nil {
		cw.World.Close()
	}
	if cw.Registry != nil {
		cw.Registry.Close()
	}
}
