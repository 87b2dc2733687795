// Package udptransport serves the ERASMUS collection protocols over real
// UDP sockets (standard library net), turning simulated provers into
// daemons a verifier can poll across an actual network.
//
// The prover's runtime is event-driven on virtual time; this package
// bridges the two clocks by pumping the simulation forward to track the
// wall clock: one virtual nanosecond per elapsed wall nanosecond. The
// measurement schedule therefore fires in real time, and collection
// requests observe the same buffer state a hardware deployment would.
//
// A Server hosts any number of provers on one socket. The original
// single-prover datagrams (one type byte followed by the wire encodings
// from internal/core) address the server's default prover; fleet datagrams
// carry an exchange id and a device-id frame in front of the payload, so
// one socket demuxes collections for a whole population and a pooled
// FleetClient can keep many requests in flight concurrently.
package udptransport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"erasmus/internal/core"
	"erasmus/internal/crypto/mac"
	"erasmus/internal/sim"
)

// Message type bytes.
const (
	msgCollectReq  = 0x01
	msgCollectResp = 0x02
	msgODReq       = 0x03
	msgODResp      = 0x04
	// Fleet messages prefix the payload with [xid uint32][idLen uint8][id],
	// echoed verbatim in the response so pooled sockets can match replies
	// to requests.
	msgFleetCollectReq  = 0x05
	msgFleetCollectResp = 0x06
	// Delta (since-watermark) collections: the incremental protocol of a
	// stateful verifier. Responses reuse msgCollectResp/msgFleetCollectResp
	// — a record list is a record list, whichever request produced it.
	msgDeltaCollectReq      = 0x07
	msgFleetDeltaCollectReq = 0x08
	// Aggregate-anchor collections carry evidence (chain head + one MAC)
	// ahead of the record list, so they get their own response types.
	msgAggDeltaCollectReq      = 0x09
	msgAggCollectResp          = 0x0A
	msgFleetAggDeltaCollectReq = 0x0B
	msgFleetAggCollectResp     = 0x0C
)

const maxDatagram = 64 * 1024

// defaultProverID keys the prover addressed by the original un-framed
// single-prover messages.
const defaultProverID = ""

// Limits for the serve loop's persistent-error handling: a socket that
// keeps failing must not spin a goroutine at 100% CPU, and one that can
// never recover must not keep a dead server half-alive.
const (
	maxReadErrors  = 64
	maxReadBackoff = 250 * time.Millisecond
)

// Server exposes one or more provers on a UDP socket.
type Server struct {
	conn *net.UDPConn
	alg  mac.Algorithm

	mu        sync.Mutex // guards engine and provers
	engine    *sim.Engine
	provers   map[string]*core.Prover
	wallStart time.Time
	simStart  sim.Ticks

	done        chan struct{}
	serveExited chan struct{} // closed when the read loop returns
	wg          sync.WaitGroup
}

// Serve binds addr (e.g. "127.0.0.1:0") and starts serving the prover as
// the server's default (un-framed protocol) device. The caller must have
// built prover on engine; after Serve returns, the engine is owned by the
// server's clock pump and must not be driven directly.
func Serve(addr string, engine *sim.Engine, prover *core.Prover, alg mac.Algorithm) (*Server, error) {
	if prover == nil {
		return nil, errors.New("udptransport: nil prover")
	}
	s, err := newServer(addr, engine, alg)
	if err != nil {
		return nil, err
	}
	s.provers[defaultProverID] = prover
	s.start()
	return s, nil
}

// ServeFleet binds addr and starts a multi-prover server. Provers are
// added with Host; every hosted prover must live on the given engine,
// which the server's clock pump owns from here on.
func ServeFleet(addr string, engine *sim.Engine, alg mac.Algorithm) (*Server, error) {
	s, err := newServer(addr, engine, alg)
	if err != nil {
		return nil, err
	}
	s.start()
	return s, nil
}

//erasmus:wallpaced the server anchors its virtual clock to a wall epoch; real sockets are wall-paced by nature
func newServer(addr string, engine *sim.Engine, alg mac.Algorithm) (*Server, error) {
	if engine == nil {
		return nil, errors.New("udptransport: nil engine")
	}
	if !alg.Valid() {
		return nil, fmt.Errorf("udptransport: invalid algorithm %d", int(alg))
	}
	udpAddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", udpAddr)
	if err != nil {
		return nil, err
	}
	s := &Server{
		conn:        conn,
		alg:         alg,
		provers:     make(map[string]*core.Prover),
		engine:      engine,
		wallStart:   time.Now(),
		simStart:    engine.Now(),
		done:        make(chan struct{}),
		serveExited: make(chan struct{}),
	}
	return s, nil
}

func (s *Server) start() {
	s.wg.Add(2)
	go s.pumpClock()
	go s.serve()
}

// Host registers a prover under a device id for the fleet protocol. The
// prover must run on the server's engine. Hosting may happen at any time
// (fleet churn): requests for unknown ids are silently dropped, exactly
// like requests to a dark device.
func (s *Server) Host(id string, prover *core.Prover) error {
	if id == "" || len(id) > 255 {
		return fmt.Errorf("udptransport: device id %q must be 1–255 bytes", id)
	}
	if prover == nil {
		return errors.New("udptransport: nil prover")
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.provers[id]; dup {
		return fmt.Errorf("udptransport: device %q already hosted", id)
	}
	s.provers[id] = prover
	return nil
}

// Unhost removes a prover from the fleet protocol (decommissioning);
// subsequent requests for the id are dropped.
func (s *Server) Unhost(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.provers, id)
}

// Do runs fn with the server's engine and hosted provers locked: the way
// to read prover state while the server is serving.
func (s *Server) Do(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	fn()
}

// Addr returns the bound address (useful with port 0).
func (s *Server) Addr() *net.UDPAddr { return s.conn.LocalAddr().(*net.UDPAddr) }

// Close stops the server and releases the socket.
func (s *Server) Close() error {
	select {
	case <-s.done:
		return nil
	default:
	}
	close(s.done)
	err := s.conn.Close()
	s.wg.Wait()
	return err
}

// advance drives virtual time to the current wall offset. Callers hold mu.
//
//erasmus:wallpaced mapping wall time onto the virtual clock is this function's purpose
func (s *Server) advanceLocked() {
	target := s.simStart + sim.Ticks(time.Since(s.wallStart))
	if target > s.engine.Now() {
		s.engine.RunUntil(target)
	}
}

// pumpClock keeps the schedule firing even when no requests arrive.
func (s *Server) pumpClock() {
	defer s.wg.Done()
	ticker := time.NewTicker(5 * time.Millisecond)
	defer ticker.Stop()
	for {
		select {
		case <-s.done:
			return
		case <-ticker.C:
			s.mu.Lock()
			s.advanceLocked()
			s.mu.Unlock()
		}
	}
}

func (s *Server) serve() {
	defer s.wg.Done()
	defer close(s.serveExited)
	buf := make([]byte, maxDatagram)
	errStreak := 0
	backoff := time.Millisecond
	for {
		n, peer, err := s.conn.ReadFromUDP(buf)
		if err != nil {
			select {
			case <-s.done:
				return
			default:
			}
			if errors.Is(err, net.ErrClosed) {
				return // the socket is gone for good; nothing left to serve
			}
			// Transient errors happen (ICMP-induced, buffer pressure), but
			// a persistent failure must neither spin this goroutine at
			// 100% CPU nor keep a dead server half-alive: back off, and
			// give up after a sustained streak.
			if errStreak++; errStreak >= maxReadErrors {
				return
			}
			select {
			case <-s.done:
				return
			case <-time.After(backoff):
			}
			if backoff *= 2; backoff > maxReadBackoff {
				backoff = maxReadBackoff
			}
			continue
		}
		errStreak, backoff = 0, time.Millisecond
		if n == 0 {
			continue
		}
		resp := s.handle(buf[:n])
		if resp != nil {
			s.conn.WriteToUDP(resp, peer)
		}
	}
}

// handle parses one datagram and produces the reply (nil = drop silently,
// matching the simulation transport's semantics for malformed or rejected
// requests).
func (s *Server) handle(dgram []byte) []byte {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.advanceLocked()

	switch dgram[0] {
	case msgCollectReq:
		prover := s.provers[defaultProverID]
		req, err := core.DecodeCollectRequest(dgram[1:])
		if err != nil || prover == nil {
			return nil
		}
		recs, _ := prover.HandleCollect(req.K)
		return append([]byte{msgCollectResp}, core.CollectResponse{Records: recs}.Encode(s.alg)...)
	case msgODReq:
		prover := s.provers[defaultProverID]
		req, err := core.DecodeODRequest(s.alg, dgram[1:])
		if err != nil || prover == nil {
			return nil
		}
		m0, hist, _, err := prover.HandleCollectOD(req.Treq, req.K, req.MAC)
		if err != nil {
			return nil
		}
		return append([]byte{msgODResp}, core.ODResponse{M0: m0, Records: hist}.Encode(s.alg)...)
	case msgDeltaCollectReq:
		prover := s.provers[defaultProverID]
		req, err := core.DecodeDeltaCollectRequest(dgram[1:])
		if err != nil || prover == nil {
			return nil
		}
		recs, _ := prover.HandleCollectDelta(req.Since, req.K)
		return append([]byte{msgCollectResp}, core.CollectResponse{Records: recs}.Encode(s.alg)...)
	case msgAggDeltaCollectReq:
		prover := s.provers[defaultProverID]
		req, err := core.DecodeAggDeltaCollectRequest(dgram[1:])
		if err != nil || prover == nil {
			return nil
		}
		recs, state, aggMAC, _, err := prover.HandleCollectDeltaAggregate(req.Since, req.Nonce, req.K, req.AnchorHash)
		if err != nil {
			return nil
		}
		return append([]byte{msgAggCollectResp},
			core.AggCollectResponse{ChainState: state, AggMAC: aggMAC, Records: recs}.Encode(s.alg)...)
	case msgFleetCollectReq:
		frame, payload, err := decodeFleetFrame(dgram)
		if err != nil {
			return nil
		}
		prover := s.provers[frame.id]
		req, err := core.DecodeCollectRequest(payload)
		if err != nil || prover == nil {
			return nil
		}
		recs, _ := prover.HandleCollect(req.K)
		return encodeFleetFrame(msgFleetCollectResp, frame,
			core.CollectResponse{Records: recs}.Encode(s.alg))
	case msgFleetDeltaCollectReq:
		frame, payload, err := decodeFleetFrame(dgram)
		if err != nil {
			return nil
		}
		prover := s.provers[frame.id]
		req, err := core.DecodeDeltaCollectRequest(payload)
		if err != nil || prover == nil {
			return nil
		}
		recs, _ := prover.HandleCollectDelta(req.Since, req.K)
		return encodeFleetFrame(msgFleetCollectResp, frame,
			core.CollectResponse{Records: recs}.Encode(s.alg))
	case msgFleetAggDeltaCollectReq:
		frame, payload, err := decodeFleetFrame(dgram)
		if err != nil {
			return nil
		}
		prover := s.provers[frame.id]
		req, err := core.DecodeAggDeltaCollectRequest(payload)
		if err != nil || prover == nil {
			return nil
		}
		recs, state, aggMAC, _, err := prover.HandleCollectDeltaAggregate(req.Since, req.Nonce, req.K, req.AnchorHash)
		if err != nil {
			return nil
		}
		return encodeFleetFrame(msgFleetAggCollectResp, frame,
			core.AggCollectResponse{ChainState: state, AggMAC: aggMAC, Records: recs}.Encode(s.alg))
	default:
		return nil
	}
}

// fleetFrame is the demux header of the fleet protocol: an exchange id
// chosen by the client plus the target device id, echoed in the response.
type fleetFrame struct {
	xid uint32
	id  string
}

func encodeFleetFrame(msgType byte, f fleetFrame, payload []byte) []byte {
	out := make([]byte, 0, 6+len(f.id)+len(payload))
	out = append(out, msgType)
	out = binary.BigEndian.AppendUint32(out, f.xid)
	out = append(out, byte(len(f.id)))
	out = append(out, f.id...)
	return append(out, payload...)
}

func decodeFleetFrame(dgram []byte) (fleetFrame, []byte, error) {
	if len(dgram) < 6 {
		return fleetFrame{}, nil, errors.New("udptransport: fleet frame truncated")
	}
	xid := binary.BigEndian.Uint32(dgram[1:5])
	idLen := int(dgram[5])
	if idLen == 0 || len(dgram) < 6+idLen {
		return fleetFrame{}, nil, errors.New("udptransport: fleet frame id truncated")
	}
	return fleetFrame{xid: xid, id: string(dgram[6 : 6+idLen])}, dgram[6+idLen:], nil
}

// Client collects from a remote prover over UDP (the single-prover,
// un-framed protocol).
type Client struct {
	conn *net.UDPConn
	alg  mac.Algorithm
	key  []byte

	// Timeout per attempt and total attempts (defaults 500 ms × 3).
	Timeout  time.Duration
	Attempts int

	lastTreq uint64
}

// Dial connects (in the UDP sense) to a prover server.
func Dial(server string, alg mac.Algorithm, key []byte) (*Client, error) {
	if !alg.Valid() {
		return nil, fmt.Errorf("udptransport: invalid algorithm %d", int(alg))
	}
	addr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, err
	}
	conn, err := net.DialUDP("udp", nil, addr)
	if err != nil {
		return nil, err
	}
	return &Client{
		conn: conn, alg: alg, key: append([]byte(nil), key...),
		Timeout: 500 * time.Millisecond, Attempts: 3,
	}, nil
}

// Close releases the socket.
func (c *Client) Close() error { return c.conn.Close() }

// ErrTimeout is returned when every attempt expires unanswered.
var ErrTimeout = errors.New("udptransport: request timed out")

// roundTrip sends a request datagram over conn and waits for a response
// accepted by ok, retrying per the given budget. fresh, when non-nil,
// rebuilds the request for each retransmission.
//
//erasmus:wallpaced socket read deadlines are wall-clock by definition
func roundTrip(conn *net.UDPConn, req []byte, timeout time.Duration, attempts int,
	ok func([]byte) bool, fresh func() []byte) ([]byte, error) {
	buf := make([]byte, maxDatagram)
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 && fresh != nil {
			req = fresh()
		}
		if _, err := conn.Write(req); err != nil {
			return nil, err
		}
		deadline := time.Now().Add(timeout)
		for {
			if err := conn.SetReadDeadline(deadline); err != nil {
				return nil, err
			}
			n, err := conn.Read(buf)
			if err != nil {
				break // timeout or socket error: next attempt
			}
			if n > 0 && ok(buf[:n]) {
				out := make([]byte, n)
				copy(out, buf[:n])
				return out, nil
			}
			// Unexpected datagram (stale response): keep reading until
			// the attempt deadline.
		}
	}
	return nil, ErrTimeout
}

// Collect fetches the k latest records.
func (c *Client) Collect(k int) ([]core.Record, error) {
	return c.collectRecords(append([]byte{msgCollectReq}, core.CollectRequest{K: k}.Encode()...))
}

// CollectDelta fetches the records measured at or after since (the
// caller's watermark), newest first; k ≤ 0 means everything since,
// clamped to the prover's buffer.
func (c *Client) CollectDelta(since uint64, k int) ([]core.Record, error) {
	return c.collectRecords(append([]byte{msgDeltaCollectReq}, core.DeltaCollectRequest{Since: since, K: k}.Encode()...))
}

// CollectDeltaAggregate fetches the records measured at or after since
// together with the aggregate evidence: the prover's marshaled chain
// head and one MAC binding it to (since, nonce, anchorHash). The caller
// verifies the bundle with core.VerifyDeltaAggregate.
func (c *Client) CollectDeltaAggregate(since, nonce uint64, anchorHash []byte, k int) ([]core.Record, []byte, []byte, error) {
	req := append([]byte{msgAggDeltaCollectReq},
		core.AggDeltaCollectRequest{Since: since, Nonce: nonce, K: k, AnchorHash: anchorHash}.Encode()...)
	raw, err := roundTrip(c.conn, req, c.Timeout, c.Attempts,
		func(b []byte) bool { return b[0] == msgAggCollectResp }, nil)
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := core.DecodeAggCollectResponse(c.alg, raw[1:])
	if err != nil {
		return nil, nil, nil, err
	}
	return resp.Records, resp.ChainState, resp.AggMAC, nil
}

// collectRecords runs one unauthenticated collection exchange: both the
// full and the delta request are answered by a msgCollectResp record list.
func (c *Client) collectRecords(req []byte) ([]core.Record, error) {
	raw, err := roundTrip(c.conn, req, c.Timeout, c.Attempts,
		func(b []byte) bool { return b[0] == msgCollectResp }, nil)
	if err != nil {
		return nil, err
	}
	resp, err := core.DecodeCollectResponse(c.alg, raw[1:])
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// CollectOD issues an authenticated ERASMUS+OD request. clock supplies the
// verifier's time base (must be loosely synchronized with the prover's
// RROC). Retransmissions carry fresh treq values so the prover's
// anti-replay floor never blocks them; timestamps follow core.NextTreq,
// so the floor never ratchets ahead of honest clocks either.
func (c *Client) CollectOD(k int, clock func() uint64) (core.Record, []core.Record, error) {
	if clock == nil {
		return core.Record{}, nil, errors.New("udptransport: clock required")
	}
	build := func() []byte {
		req := core.NewODRequest(c.alg, c.key, core.NextTreq(clock, &c.lastTreq), k)
		return append([]byte{msgODReq}, req.Encode()...)
	}
	raw, err := roundTrip(c.conn, build(), c.Timeout, c.Attempts,
		func(b []byte) bool { return b[0] == msgODResp }, build)
	if err != nil {
		return core.Record{}, nil, err
	}
	resp, err := core.DecodeODResponse(c.alg, raw[1:])
	if err != nil {
		return core.Record{}, nil, err
	}
	return resp.M0, resp.Records, nil
}

// FleetClient collects from many provers hosted on one fleet server. It
// holds a pool of UDP sockets, so up to poolSize collections proceed
// concurrently; Collect is safe for concurrent use and blocks when the
// pool is exhausted (natural backpressure for a fleet scheduler).
type FleetClient struct {
	// Timeout per attempt and total attempts (defaults 500 ms × 3). Set
	// before the first Collect; not synchronized.
	Timeout  time.Duration
	Attempts int

	conns []*net.UDPConn
	pool  chan *net.UDPConn
	xid   atomic.Uint32
}

// DialFleet opens poolSize sockets (minimum 1) to a fleet server.
func DialFleet(server string, poolSize int) (*FleetClient, error) {
	if poolSize < 1 {
		poolSize = 1
	}
	addr, err := net.ResolveUDPAddr("udp", server)
	if err != nil {
		return nil, err
	}
	c := &FleetClient{
		Timeout: 500 * time.Millisecond, Attempts: 3,
		pool: make(chan *net.UDPConn, poolSize),
	}
	for i := 0; i < poolSize; i++ {
		conn, err := net.DialUDP("udp", nil, addr)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.conns = append(c.conns, conn)
		c.pool <- conn
	}
	return c, nil
}

// Close releases every pooled socket; in-flight Collects fail with the
// socket error.
func (c *FleetClient) Close() error {
	var first error
	for _, conn := range c.conns {
		if err := conn.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// PoolSize returns the number of pooled sockets (the concurrency bound).
func (c *FleetClient) PoolSize() int { return cap(c.pool) }

// Collect fetches the k latest records from the prover hosted under id,
// decoding with the device's provisioned algorithm. Responses are matched
// on both the exchange id and the echoed device id, so a pooled socket
// reused across devices never delivers one device's history as another's.
func (c *FleetClient) Collect(id string, alg mac.Algorithm, k int) ([]core.Record, error) {
	return c.collect(id, alg, msgFleetCollectReq, core.CollectRequest{K: k}.Encode())
}

// CollectDelta fetches the records measured at or after since from the
// prover hosted under id — the incremental collection. k ≤ 0 means
// everything since, clamped to the prover's buffer.
func (c *FleetClient) CollectDelta(id string, alg mac.Algorithm, since uint64, k int) ([]core.Record, error) {
	return c.collect(id, alg, msgFleetDeltaCollectReq, core.DeltaCollectRequest{Since: since, K: k}.Encode())
}

// CollectDeltaAggregate fetches the records measured at or after since
// from the prover hosted under id, plus the aggregate evidence (chain
// head + MAC bound to since/nonce/anchorHash).
func (c *FleetClient) CollectDeltaAggregate(id string, alg mac.Algorithm, since, nonce uint64, anchorHash []byte, k int) ([]core.Record, []byte, []byte, error) {
	payload, err := c.exchange(id, alg, msgFleetAggDeltaCollectReq, msgFleetAggCollectResp,
		core.AggDeltaCollectRequest{Since: since, Nonce: nonce, K: k, AnchorHash: anchorHash}.Encode())
	if err != nil {
		return nil, nil, nil, err
	}
	resp, err := core.DecodeAggCollectResponse(alg, payload)
	if err != nil {
		return nil, nil, nil, err
	}
	return resp.Records, resp.ChainState, resp.AggMAC, nil
}

// collect runs one framed record-list exchange over a pooled socket.
func (c *FleetClient) collect(id string, alg mac.Algorithm, msgType byte, reqPayload []byte) ([]core.Record, error) {
	payload, err := c.exchange(id, alg, msgType, msgFleetCollectResp, reqPayload)
	if err != nil {
		return nil, err
	}
	resp, err := core.DecodeCollectResponse(alg, payload)
	if err != nil {
		return nil, err
	}
	return resp.Records, nil
}

// exchange runs one framed request/response exchange over a pooled
// socket, returning the response payload with the frame stripped.
func (c *FleetClient) exchange(id string, alg mac.Algorithm, msgType, respType byte, reqPayload []byte) ([]byte, error) {
	if id == "" || len(id) > 255 {
		return nil, fmt.Errorf("udptransport: device id %q must be 1–255 bytes", id)
	}
	if !alg.Valid() {
		return nil, fmt.Errorf("udptransport: invalid algorithm %d", int(alg))
	}
	frame := fleetFrame{xid: c.xid.Add(1), id: id}
	req := encodeFleetFrame(msgType, frame, reqPayload)

	conn := <-c.pool
	defer func() { c.pool <- conn }()
	raw, err := roundTrip(conn, req, c.Timeout, c.Attempts, func(b []byte) bool {
		if b[0] != respType {
			return false
		}
		got, _, err := decodeFleetFrame(b)
		return err == nil && got == frame
	}, nil)
	if err != nil {
		return nil, err
	}
	_, payload, err := decodeFleetFrame(raw)
	if err != nil {
		return nil, err
	}
	return payload, nil
}
