// state.go gives the view managers durable snapshots (internal/durable):
// base-relation replicas or auxiliaries, the queued-update backlog, carried
// RELᵢ sets, and QID bookkeeping. Checkpoints are taken at quiescence, so a
// busy manager (work on a pool or timer, or a source round in flight)
// refuses to marshal rather than silently dropping the in-progress batch.
package viewmgr

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"sort"

	"whips/internal/msg"
	"whips/internal/relation"
	"whips/internal/wire"
)

// gobEncode and gobDecode frame every manager's state struct.
func gobEncode(st any) ([]byte, error) {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func gobDecode(b []byte, st any) error { return gob.NewDecoder(bytes.NewReader(b)).Decode(st) }

type namedRel struct {
	Name string
	Rel  wire.Rel
}

// encodeNamed encodes a name → relation map in name order; nil entries
// (degraded auxiliaries) are recorded by name only, so a restart neither
// resurrects nor forgets them.
func encodeNamed(db map[string]*relation.Relation) (rels []namedRel, nilNames []string) {
	names := make([]string, 0, len(db))
	for n := range db {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if db[n] == nil {
			nilNames = append(nilNames, n)
			continue
		}
		rels = append(rels, namedRel{Name: n, Rel: wire.EncodeRelation(db[n])})
	}
	return rels, nilNames
}

func decodeNamed(rels []namedRel, nilNames []string) (map[string]*relation.Relation, error) {
	db := make(map[string]*relation.Relation, len(rels)+len(nilNames))
	for _, nr := range rels {
		rel, err := wire.DecodeRelation(nr.Rel)
		if err != nil {
			return nil, fmt.Errorf("viewmgr: restore %q: %w", nr.Name, err)
		}
		db[nr.Name] = rel
	}
	for _, n := range nilNames {
		db[n] = nil
	}
	return db, nil
}

// wireBacklog is the durable form of a backlog.
type wireBacklog struct {
	Queue    []wire.Update
	Arrivals []int64
	Rels     []wire.RelevantSet
}

func (b backlog) marshal() (wireBacklog, error) {
	w := wireBacklog{Arrivals: b.arrivals}
	for _, u := range b.queue {
		wu, err := wire.Encode(u)
		if err != nil {
			return w, err
		}
		w.Queue = append(w.Queue, wu.(wire.Update))
	}
	for _, r := range b.rels.pending {
		wr, err := wire.Encode(r)
		if err != nil {
			return w, err
		}
		w.Rels = append(w.Rels, wr.(wire.RelevantSet))
	}
	return w, nil
}

func (b *backlog) restore(w wireBacklog) error {
	*b = backlog{arrivals: w.Arrivals}
	for _, wu := range w.Queue {
		m, err := wire.Decode(wu)
		if err != nil {
			return err
		}
		b.queue = append(b.queue, m.(msg.Update))
	}
	for _, wr := range w.Rels {
		m, err := wire.Decode(wr)
		if err != nil {
			return err
		}
		b.rels.pending = append(b.rels.pending, m.(msg.RelevantSet))
	}
	return nil
}

type batcherState struct {
	Reps    []namedRel
	RepSeq  int64
	Backlog wireBacklog
}

func (b *batcher) marshalState() ([]byte, error) {
	if b.busy {
		return nil, fmt.Errorf("viewmgr: %s busy — checkpoint requires quiescence", b.cfg.View)
	}
	st := batcherState{RepSeq: int64(b.reps.seq)}
	st.Reps, _ = encodeNamed(b.reps.db)
	var err error
	if st.Backlog, err = b.backlog.marshal(); err != nil {
		return nil, err
	}
	return gobEncode(st)
}

func (b *batcher) restoreState(bs []byte) error {
	var st batcherState
	if err := gobDecode(bs, &st); err != nil {
		return err
	}
	db, err := decodeNamed(st.Reps, nil)
	if err != nil {
		return err
	}
	b.reps.db, b.reps.seq = db, msg.UpdateID(st.RepSeq)
	b.busy = false
	return b.backlog.restore(st.Backlog)
}

// MarshalState implements durable.Durable.
func (m *Complete) MarshalState() ([]byte, error) { return m.b.marshalState() }

// RestoreState implements durable.Durable.
func (m *Complete) RestoreState(b []byte) error { return m.b.restoreState(b) }

// MarshalState implements durable.Durable.
func (m *Batching) MarshalState() ([]byte, error) { return m.b.marshalState() }

// RestoreState implements durable.Durable.
func (m *Batching) RestoreState(b []byte) error { return m.b.restoreState(b) }

// MarshalState implements durable.Durable.
func (m *CompleteN) MarshalState() ([]byte, error) { return m.b.marshalState() }

// RestoreState implements durable.Durable.
func (m *CompleteN) RestoreState(b []byte) error { return m.b.restoreState(b) }

// MarshalState implements durable.Durable.
func (m *Convergent) MarshalState() ([]byte, error) { return m.b.marshalState() }

// RestoreState implements durable.Durable.
func (m *Convergent) RestoreState(b []byte) error { return m.b.restoreState(b) }

// loopState persists an updateLoop manager. NextQID must survive restarts:
// a response addressed to a pre-crash QID would otherwise alias a fresh
// round's QID instead of being dropped as stale. Aux and Degraded hold
// SelfMaintaining's auxiliaries and are empty for CompleteQuery.
type loopState struct {
	NextQID  int64
	Backlog  wireBacklog
	Aux      []namedRel
	Degraded []string
}

// marshalState encodes the loop plus the manager's auxiliaries (nil for
// none). A checkpoint requires quiescence: with a head round in flight the
// manager refuses, the same contract as the replica-based managers' busy
// periods. (At quiescence the queue is empty — a nonempty queue always has
// a round in flight or has drained — so an in-flight round is never
// persisted; it is abandoned by the crash and restarted by the replay of
// its update.)
func (l *updateLoop) marshalState(aux map[string]*relation.Relation) ([]byte, error) {
	if l.q.active() {
		return nil, fmt.Errorf("viewmgr: %s busy — checkpoint requires quiescence (source query round in flight)", l.cfg.View)
	}
	st := loopState{NextQID: int64(l.q.nextQID)}
	st.Aux, st.Degraded = encodeNamed(aux)
	var err error
	if st.Backlog, err = l.backlog.marshal(); err != nil {
		return nil, err
	}
	return gobEncode(st)
}

// restoreState restores the loop and returns the persisted auxiliaries.
// Any round that was in flight at the crash is abandoned (late responses
// carry QIDs at or below the persisted NextQID and are dropped as stale)
// and restarts when the WAL replays the update that started it.
func (l *updateLoop) restoreState(b []byte) (map[string]*relation.Relation, error) {
	var st loopState
	if err := gobDecode(b, &st); err != nil {
		return nil, err
	}
	aux, err := decodeNamed(st.Aux, st.Degraded)
	if err != nil {
		return nil, err
	}
	if err := l.backlog.restore(st.Backlog); err != nil {
		return nil, err
	}
	l.q.nextQID = msg.QueryID(st.NextQID)
	l.q.pending, l.q.answers = nil, nil
	return aux, nil
}

// MarshalState implements durable.Durable.
func (m *CompleteQuery) MarshalState() ([]byte, error) { return m.marshalState(nil) }

// RestoreState implements durable.Durable.
func (m *CompleteQuery) RestoreState(b []byte) error {
	_, err := m.restoreState(b)
	return err
}

// MarshalState implements durable.Durable.
func (m *SelfMaintaining) MarshalState() ([]byte, error) { return m.marshalState(m.aux) }

// RestoreState implements durable.Durable.
func (m *SelfMaintaining) RestoreState(b []byte) error {
	aux, err := m.restoreState(b)
	if err != nil {
		return err
	}
	m.aux = aux
	m.enforceBound()
	return nil
}

// queryBatchingState persists a QueryBatching manager between rounds.
type queryBatchingState struct {
	NextQID    int64
	Frontier   int64
	Dirty      bool
	DirtySince int64
	SentUpto   int64
	LastSent   wire.Rel
	Backlog    wireBacklog // carried RELᵢ sets only; the manager queues no updates
}

// MarshalState implements durable.Durable; same quiescence contract as
// CompleteQuery (an in-flight frontier query refuses the checkpoint).
func (m *QueryBatching) MarshalState() ([]byte, error) {
	if m.q.active() {
		return nil, fmt.Errorf("viewmgr: %s busy — checkpoint requires quiescence (frontier query in flight)", m.cfg.View)
	}
	st := queryBatchingState{
		NextQID: int64(m.q.nextQID), Frontier: int64(m.frontier),
		Dirty: m.dirty, DirtySince: m.dirtySince,
		SentUpto: int64(m.sentUpto), LastSent: wire.EncodeRelation(m.lastSent),
	}
	var err error
	if st.Backlog, err = (backlog{rels: m.rels}).marshal(); err != nil {
		return nil, err
	}
	return gobEncode(st)
}

// RestoreState implements durable.Durable. An in-flight query at the crash
// is abandoned; the replayed update that made the manager dirty pumps a
// fresh one under a post-restore QID.
func (m *QueryBatching) RestoreState(b []byte) error {
	var st queryBatchingState
	if err := gobDecode(b, &st); err != nil {
		return err
	}
	last, err := wire.DecodeRelation(st.LastSent)
	if err != nil {
		return err
	}
	var bl backlog
	if err := bl.restore(st.Backlog); err != nil {
		return err
	}
	m.rels = bl.rels
	m.q.nextQID = msg.QueryID(st.NextQID)
	m.q.pending, m.q.answers = nil, nil
	m.frontier = msg.UpdateID(st.Frontier)
	m.dirty = st.Dirty
	m.dirtySince = st.DirtySince
	m.sentUpto = msg.UpdateID(st.SentUpto)
	m.lastSent = last
	m.frontierTrace, m.targetTrace = nil, nil
	return nil
}

type refreshState struct {
	Reps       []namedRel
	RepSeq     int64
	Pending    int
	From       int64
	LastSent   wire.Rel
	BatchStart int64
	// HasCur/Cur persist the shared-deltas running view contents.
	HasCur bool
	Cur    wire.Rel
}

// MarshalState implements durable.Durable.
func (m *Refresh) MarshalState() ([]byte, error) {
	st := refreshState{
		RepSeq:  int64(m.reps.seq),
		Pending: m.pending, From: int64(m.from),
		LastSent: wire.EncodeRelation(m.lastSent), BatchStart: m.batchStart,
	}
	st.Reps, _ = encodeNamed(m.reps.db)
	if m.cur != nil {
		st.HasCur = true
		st.Cur = wire.EncodeRelation(m.cur)
	}
	return gobEncode(st)
}

// RestoreState implements durable.Durable.
func (m *Refresh) RestoreState(b []byte) error {
	var st refreshState
	if err := gobDecode(b, &st); err != nil {
		return err
	}
	db, err := decodeNamed(st.Reps, nil)
	if err != nil {
		return err
	}
	m.reps.db, m.reps.seq = db, msg.UpdateID(st.RepSeq)
	last, err := wire.DecodeRelation(st.LastSent)
	if err != nil {
		return err
	}
	if st.HasCur {
		cur, err := wire.DecodeRelation(st.Cur)
		if err != nil {
			return err
		}
		m.cur = cur
	}
	m.pending = st.Pending
	m.from = msg.UpdateID(st.From)
	m.lastSent = last
	m.batchStart = st.BatchStart
	return nil
}
