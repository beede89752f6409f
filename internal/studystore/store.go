// Package studystore is an embedded, crash-safe, append-only study
// store: the durability layer under the tuning loop's trial journal and
// the storage foundation for multi-study serving.
//
// Records are opaque payloads (JSON upstream) keyed by (study, ID) and
// written as length-prefixed, CRC32C-framed entries into segment files
// that rotate at a size threshold. Durability follows a strict fsync
// barrier discipline: every append batch is fsync'd before it is
// acknowledged — concurrent batches are group-committed under one shared
// fsync (see group.go), but the ack still comes strictly after the fsync
// that covers it — segments are sealed (seal frame + fsync) before the next
// one is created, and the directory is fsync'd after every create,
// rename, or remove that must survive a power cut. Compaction writes a
// checkpoint snapshot of the live record set, makes it durable, and only
// then drops the segments it supersedes — crash-safe at every step.
//
// Recovery distinguishes the two corruption classes a write-ahead log
// must never conflate: a torn tail in the last segment is the expected
// artifact of a crash mid-append and is silently truncated, while a
// corrupt interior frame (CRC mismatch, impossible length) is
// quarantined with a report — the damaged byte range is counted and
// surfaced via Quarantine, never silently skipped, and Compact refuses
// to destroy segments while quarantined bytes exist.
//
// Any write or fsync failure poisons the store: the durable state on
// disk is no longer known to match the in-memory index, so every
// subsequent append fails fast with ErrPoisoned until the store is
// reopened (reopening replays the durable truth).
package studystore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// ErrPoisoned marks a store unusable after a write or fsync failure: the
// durable state is ambiguous, so appends fail fast until a reopen
// re-establishes the on-disk truth.
var ErrPoisoned = errors.New("studystore: store poisoned by earlier write failure")

// ErrReadOnly is returned by mutating calls on a read-only store.
var ErrReadOnly = errors.New("studystore: store is read-only")

// ErrQuarantined is returned by Compact when quarantined bytes exist:
// compaction would silently destroy the damaged ranges.
var ErrQuarantined = errors.New("studystore: refusing to compact with quarantined records")

// ErrClosed is returned by appends after Close or Seal released the
// active segment handle.
var ErrClosed = errors.New("studystore: store is closed")

// Record is one stored entry: an opaque payload keyed by (study, ID).
type Record struct {
	Study   string
	ID      int64
	Payload []byte
}

// Quarantined reports one damaged byte range found during recovery.
type Quarantined struct {
	// File is the segment or snapshot filename (not path).
	File string
	// Offset is where the damage starts; Bytes is the quarantined length.
	Offset int64
	Bytes  int64
	// Reason describes the corruption (CRC mismatch, bad header, ...).
	Reason string
}

// Options configures Open.
type Options struct {
	// FS is the filesystem to write through (default: the real OS).
	FS FS
	// SegmentBytes is the rotation threshold (default 1 MiB): a batch
	// that finds the active segment at or past this size rotates first.
	SegmentBytes int64
	// ReadOnly opens the store without repairing, creating, or writing
	// anything; Append, Compact, and Rotate fail with ErrReadOnly.
	ReadOnly bool
}

// Stats summarizes store state and activity since Open.
type Stats struct {
	Records       int    // live records in the index
	Studies       int    // distinct studies
	Segments      int    // live segment files (including active)
	ActiveSeq     uint64 // sequence of the segment accepting appends
	SnapshotSeq   uint64 // sequence covered by the newest snapshot (0 = none)
	Appended      int    // records appended through this handle
	Rotations     int    // segment rotations through this handle
	Compactions   int    // successful compactions through this handle
	TornTailBytes int64  // bytes truncated from the last segment at Open
	Quarantined   int    // damaged byte ranges reported by recovery

	// Group-commit amortization counters (all through this handle).
	Fsyncs        int   // file fsyncs issued on the write path
	Groups        int   // append group commits (one shared fsync each)
	GroupBatches  int   // append batches committed through groups
	MaxGroup      int   // largest group (batches under one fsync)
	AppendedBytes int64 // framed bytes appended
	Poisoned      bool  // writes refused after an earlier write/fsync failure
}

// MeanGroup is the mean number of append batches amortized per group
// commit (1.0 means no amortization happened).
func (st Stats) MeanGroup() float64 {
	if st.Groups == 0 {
		return 0
	}
	return float64(st.GroupBatches) / float64(st.Groups)
}

// Store is the embedded study store. All methods are safe for
// concurrent use.
//
// Locking: three locks split the commit queue, the write barrier, and
// the read path. qmu guards the group-commit queue (pending batches and
// nothing else; never held across I/O). wmu orders the write path — it
// owns the active segment handle and is held across Write/Sync/rotate/
// compact so the on-disk log is a serial history; holding it across
// fsync IS the WAL barrier and is deliberate (annotated where the
// lockheld analyzer fires). Of the appenders only the current leader
// takes wmu, so concurrent appenders queue on qmu (cheap) rather than on
// an fsync in progress. mu guards the in-memory index and handle
// metadata and is never held across I/O, so Records/Studies/Stats/
// Quarantine do not wait behind an fsync. Acquire wmu before mu, never
// the reverse; qmu nests inside neither. Fields guarded by mu are
// written only while wmu is also held, so the write path may read them
// under wmu alone.
type Store struct {
	wmu sync.Mutex
	mu  sync.Mutex
	fs  FS
	dir string

	segBytes int64
	readOnly bool

	// Group-commit queue: qmu guards the pending batches (never held
	// across I/O); leadTok is the capacity-1 leadership token — its
	// holder drains the queue under wmu. See group.go.
	qmu     sync.Mutex
	queue   []*commitReq
	leadTok chan struct{}

	// Owned by wmu: the active segment and write-path state.
	active     File
	activeSize int64
	poison     error

	// Guarded by mu (written under wmu+mu): index and metadata.
	activeSeq uint64
	liveSegs  map[uint64]bool
	snapSeq   uint64

	studies     map[string][]Record
	seen        map[string]map[int64]bool
	nrecords    int
	quarantined []Quarantined

	appended, rotations, compactions int
	tornTailBytes                    int64
	fsyncs, groups, groupBatches     int
	maxGroup                         int
	appendedBytes                    int64
	poisoned                         bool
}

// Open loads (creating if needed) the store at dir: it removes stale
// temp files, loads the newest intact snapshot, finishes any compaction
// that crashed after its commit point (removing superseded segments and
// snapshots), replays every newer segment — truncating a torn tail,
// quarantining interior corruption — and prepares an active segment for
// appending.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		fs:       opts.FS,
		dir:      dir,
		segBytes: opts.SegmentBytes,
		readOnly: opts.ReadOnly,
		leadTok:  make(chan struct{}, 1),
		liveSegs: map[uint64]bool{},
		studies:  map[string][]Record{},
		seen:     map[string]map[int64]bool{},
	}
	if s.fs == nil {
		s.fs = OSFS()
	}
	if s.segBytes <= 0 {
		s.segBytes = 1 << 20
	}
	if !s.readOnly {
		if err := s.fs.MkdirAll(dir); err != nil {
			return nil, fmt.Errorf("studystore: mkdir %s: %w", dir, err)
		}
	}
	names, err := s.fs.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("studystore: list %s: %w", dir, err)
	}
	segs, snaps, tmps := classify(names)
	dirty := false
	if !s.readOnly {
		for _, name := range tmps {
			// A temp file is a compaction that never reached its rename;
			// its contents were never acknowledged as a snapshot.
			if err := s.fs.RemoveFile(join(dir, name)); err != nil {
				return nil, fmt.Errorf("studystore: remove stale %s: %w", name, err)
			}
			dirty = true
		}
	}
	s.loadSnapshot(snaps)
	if !s.readOnly && s.snapSeq > 0 {
		// Finish a compaction that crashed mid-removal: everything the
		// loaded snapshot covers is safe to drop.
		for _, seq := range snaps {
			if seq >= s.snapSeq {
				continue
			}
			if err := s.fs.RemoveFile(join(dir, snapName(seq))); err != nil {
				return nil, fmt.Errorf("studystore: remove %s: %w", snapName(seq), err)
			}
			dirty = true
		}
		for _, seq := range segs {
			if seq > s.snapSeq {
				continue
			}
			if err := s.fs.RemoveFile(join(dir, segName(seq))); err != nil {
				return nil, fmt.Errorf("studystore: remove %s: %w", segName(seq), err)
			}
			dirty = true
		}
	}
	if err := s.replaySegments(segs, &dirty); err != nil {
		return nil, err
	}
	if !s.readOnly && dirty {
		if err := s.fs.SyncDir(dir); err != nil {
			return nil, fmt.Errorf("studystore: %w", err)
		}
	}
	return s, nil
}

// classify splits directory entries into segment seqs, snapshot seqs
// (both ascending), and temp files.
func classify(names []string) (segs, snaps []uint64, tmps []string) {
	for _, name := range names {
		if strings.HasSuffix(name, ".tmp") {
			tmps = append(tmps, name)
			continue
		}
		if seq, ok := parseName(name, "seg-", ".log"); ok {
			segs = append(segs, seq)
			continue
		}
		if seq, ok := parseName(name, "snap-", ".snap"); ok {
			snaps = append(snaps, seq)
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i] < segs[j] })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i] < snaps[j] })
	return segs, snaps, tmps
}

// parseName extracts the hex sequence from prefix<16 hex>suffix.
func parseName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	hex := name[len(prefix) : len(name)-len(suffix)]
	if len(hex) != 16 {
		return 0, false
	}
	seq, err := strconv.ParseUint(hex, 16, 64)
	if err != nil {
		return 0, false
	}
	return seq, true
}

// loadSnapshot loads the newest intact snapshot, reporting damaged ones.
func (s *Store) loadSnapshot(snaps []uint64) {
	for i := len(snaps) - 1; i >= 0; i-- {
		seq := snaps[i]
		name := snapName(seq)
		data, err := s.fs.ReadFile(join(s.dir, name))
		if err != nil {
			s.quarantined = append(s.quarantined, Quarantined{
				File: name, Reason: fmt.Sprintf("unreadable snapshot: %v", err)})
			continue
		}
		recs, reason := parseSnapshot(data, seq)
		if reason != "" {
			s.quarantined = append(s.quarantined, Quarantined{
				File: name, Bytes: int64(len(data)), Reason: reason})
			continue
		}
		for _, rec := range recs {
			s.addRecord(rec)
		}
		s.snapSeq = seq
		return
	}
}

// parseSnapshot validates a snapshot file end to end; a non-empty reason
// means the snapshot is unusable.
func parseSnapshot(data []byte, seq uint64) ([]Record, string) {
	if len(data) < headerSize || string(data[:8]) != snapMagic {
		return nil, "bad snapshot header"
	}
	if hdrSeq(data) != seq {
		return nil, "snapshot sequence does not match filename"
	}
	var recs []Record
	off := int64(headerSize)
	for {
		kind, body, next, st := nextFrame(data, off)
		if st != frameOK {
			return nil, fmt.Sprintf("snapshot damaged at offset %d (no footer)", off)
		}
		switch kind {
		case kindRecord:
			rec, err := decodeRecordBody(body)
			if err != nil {
				return nil, fmt.Sprintf("snapshot record at offset %d: %v", off, err)
			}
			recs = append(recs, rec)
		case kindFooter:
			if len(body) != 8 {
				return nil, "snapshot footer malformed"
			}
			if count := binary.LittleEndian.Uint64(body); count != uint64(len(recs)) {
				return nil, fmt.Sprintf("snapshot footer count %d, have %d records", count, len(recs))
			}
			if int(next) != len(data) {
				return nil, "trailing bytes after snapshot footer"
			}
			return recs, ""
		default:
			return nil, fmt.Sprintf("snapshot frame kind %d at offset %d", kind, off)
		}
		off = next
	}
}

// segState classifies one replayed segment.
type segState int

const (
	segOpenTail  segState = iota // unsealed, intact through good — valid append target
	segSealed                    // cleanly sealed at rotation
	segTornHead                  // header never became durable; carries no records
	segPoisonous                 // quarantined damage; never append to it
)

// replaySegments replays every segment newer than the snapshot, repairs
// the last one (torn-tail truncation, torn-header rewrite), and opens or
// creates the active segment.
func (s *Store) replaySegments(segs []uint64, dirty *bool) error {
	var replay []uint64
	for _, seq := range segs {
		if seq > s.snapSeq {
			replay = append(replay, seq)
		}
	}
	lastState := segSealed
	var lastGood int64
	for i, seq := range replay {
		name := segName(seq)
		isLast := i == len(replay)-1
		data, err := s.fs.ReadFile(join(s.dir, name))
		if err != nil {
			return fmt.Errorf("studystore: read %s: %w", name, err)
		}
		state, good := s.replaySegment(name, seq, data, isLast)
		s.liveSegs[seq] = true
		if !isLast {
			continue
		}
		lastState, lastGood = state, good
		if state == segOpenTail && good < int64(len(data)) && !s.readOnly {
			// Torn tail: the crash artifact. Cut the file back to the
			// last intact frame so appends continue from a clean edge.
			if err := s.fs.Truncate(join(s.dir, name), good); err != nil {
				return fmt.Errorf("studystore: truncate %s: %w", name, err)
			}
			s.tornTailBytes += int64(len(data)) - good
		}
	}
	if s.readOnly {
		if len(replay) > 0 {
			s.activeSeq = replay[len(replay)-1]
		}
		return nil
	}
	switch {
	case len(replay) > 0 && lastState == segOpenTail:
		// Reuse the unsealed tail segment.
		seq := replay[len(replay)-1]
		f, err := s.fs.OpenAppend(join(s.dir, segName(seq)))
		if err != nil {
			return fmt.Errorf("studystore: reopen %s: %w", segName(seq), err)
		}
		s.active, s.activeSeq, s.activeSize = f, seq, lastGood
		return nil
	case len(replay) > 0 && lastState == segTornHead:
		// The directory entry outlived the header bytes (power cut right
		// at creation). The file provably holds no acknowledged records,
		// so rewrite it in place under the same sequence.
		if err := s.createSegment(replay[len(replay)-1]); err != nil {
			return err
		}
		*dirty = true
		return nil
	}
	// Sealed, quarantined, or no segments at all: start a fresh one past
	// everything seen so far.
	next := s.snapSeq + 1
	if len(replay) > 0 {
		next = replay[len(replay)-1] + 1
	}
	if err := s.createSegment(next); err != nil {
		return err
	}
	*dirty = true
	return nil
}

// replaySegment parses one segment, folding records into the index and
// damage into the quarantine report. good is the offset after the last
// intact frame.
func (s *Store) replaySegment(name string, seq uint64, data []byte, isLast bool) (state segState, good int64) {
	if len(data) < headerSize {
		if isLast {
			return segTornHead, 0
		}
		s.quarantined = append(s.quarantined, Quarantined{
			File: name, Bytes: int64(len(data)), Reason: "segment header torn"})
		return segPoisonous, 0
	}
	if string(data[:8]) != segMagic || hdrSeq(data) != seq {
		s.quarantined = append(s.quarantined, Quarantined{
			File: name, Bytes: int64(len(data)), Reason: "bad segment header"})
		return segPoisonous, 0
	}
	sealed := false
	off := int64(headerSize)
	for {
		kind, body, next, st := nextFrame(data, off)
		switch st {
		case frameEOF:
			if sealed {
				return segSealed, off
			}
			return segOpenTail, off
		case frameTorn:
			if isLast && !sealed {
				return segOpenTail, off
			}
			s.quarantined = append(s.quarantined, Quarantined{
				File: name, Offset: off, Bytes: int64(len(data)) - off,
				Reason: "torn frame in sealed position"})
			return segPoisonous, off
		case frameCorrupt:
			// Interior corruption: frame lengths past this point cannot
			// be trusted, so the remainder of the segment is quarantined
			// as one reported range rather than silently resynced.
			s.quarantined = append(s.quarantined, Quarantined{
				File: name, Offset: off, Bytes: int64(len(data)) - off,
				Reason: "frame CRC/length mismatch"})
			return segPoisonous, off
		}
		if sealed {
			s.quarantined = append(s.quarantined, Quarantined{
				File: name, Offset: off, Bytes: int64(len(data)) - off,
				Reason: "frames after seal"})
			return segPoisonous, off
		}
		switch kind {
		case kindRecord:
			rec, err := decodeRecordBody(body)
			if err != nil {
				s.quarantined = append(s.quarantined, Quarantined{
					File: name, Offset: off, Bytes: int64(len(data)) - off,
					Reason: err.Error()})
				return segPoisonous, off
			}
			s.addRecord(rec)
		case kindSeal:
			sealed = true
		default:
			s.quarantined = append(s.quarantined, Quarantined{
				File: name, Offset: off, Bytes: int64(len(data)) - off,
				Reason: fmt.Sprintf("unknown frame kind %d", kind)})
			return segPoisonous, off
		}
		off = next
	}
}

// addRecord folds one record into the index; the first occurrence of a
// (study, ID) wins, matching the journal's read-side dedup semantics.
func (s *Store) addRecord(rec Record) {
	ids := s.seen[rec.Study]
	if ids == nil {
		ids = map[int64]bool{}
		s.seen[rec.Study] = ids
	}
	if ids[rec.ID] {
		return
	}
	ids[rec.ID] = true
	s.studies[rec.Study] = append(s.studies[rec.Study], rec)
	s.nrecords++
}

// createSegment creates and makes durable a fresh segment: file header
// written and fsync'd; the caller (or the shared Open epilogue) fsyncs
// the directory.
func (s *Store) createSegment(seq uint64) error {
	name := segName(seq)
	f, err := s.fs.Create(join(s.dir, name))
	if err != nil {
		return fmt.Errorf("studystore: create %s: %w", name, err)
	}
	hdr := fileHeader(segMagic, seq)
	if n, err := f.Write(hdr); err != nil || n < len(hdr) {
		//autolint:ignore droppederr already failing; the close error is secondary
		f.Close()
		return fmt.Errorf("studystore: write %s header: %w", name, writeErr(n, len(hdr), err))
	}
	if err := f.Sync(); err != nil {
		//autolint:ignore droppederr already failing; the close error is secondary
		f.Close()
		return fmt.Errorf("studystore: sync %s: %w", name, err)
	}
	s.countFsyncs(1)
	s.active, s.activeSize = f, headerSize
	s.mu.Lock()
	s.activeSeq = seq
	s.liveSegs[seq] = true
	s.mu.Unlock()
	return nil
}

// writeErr normalizes a short write into an error.
func writeErr(n, want int, err error) error {
	if err != nil {
		return err
	}
	if n < want {
		return io.ErrShortWrite
	}
	return nil
}

// Append writes one record durably. It rides the same group-commit
// queue as AppendBatch — there is exactly one fsync path in the store.
func (s *Store) Append(rec Record) error { return s.AppendBatch([]Record{rec}) }

// AppendBatch writes a batch of records under an fsync barrier: when it
// returns nil, every record in the batch is durable across a power cut.
// Concurrent batches are group-committed — each enqueues its framed
// records and a leader fsyncs every waiting batch at once — but the ack
// still happens strictly after the fsync that covers it. On any write or
// fsync failure the store is poisoned, every waiter in the failing group
// gets the error (none of their batches is durable), and subsequent
// appends fail with ErrPoisoned until the store is reopened.
func (s *Store) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	if s.readOnly {
		return ErrReadOnly
	}
	var buf []byte
	var err error
	for _, rec := range recs {
		buf, err = appendRecordFrame(buf, rec)
		if err != nil {
			return err // encoding error: nothing written, store still clean
		}
	}
	return s.enqueueCommit(&commitReq{buf: buf, recs: recs, done: make(chan error, 1)})
}

// poisonWith records the first failure and returns it. Caller holds
// wmu (poison is write-path state); the mu-guarded mirror lets Stats
// report the poisoning without touching write-path state.
func (s *Store) poisonWith(err error) error {
	if s.poison == nil {
		s.poison = err
	}
	s.mu.Lock()
	s.poisoned = true
	s.mu.Unlock()
	return err
}

// countFsyncs bumps the write-path fsync counter by n. Callers hold wmu.
func (s *Store) countFsyncs(n int) {
	s.mu.Lock()
	s.fsyncs += n
	s.mu.Unlock()
}

// rotateLocked seals the active segment and starts the next one:
// seal frame + file fsync, close, create the successor (header fsync'd),
// directory fsync. Each barrier completes before the next step, so a
// crash at any point recovers to either the sealed or the fresh segment.
// Caller holds wmu (and not mu).
func (s *Store) rotateLocked() error {
	seal := appendFrame(nil, kindSeal, nil)
	if n, err := s.active.Write(seal); err != nil || n < len(seal) {
		return fmt.Errorf("studystore: seal %s: %w", segName(s.activeSeq), writeErr(n, len(seal), err))
	}
	if err := s.active.Sync(); err != nil {
		return fmt.Errorf("studystore: seal sync %s: %w", segName(s.activeSeq), err)
	}
	s.countFsyncs(1)
	if err := s.active.Close(); err != nil {
		return fmt.Errorf("studystore: close %s: %w", segName(s.activeSeq), err)
	}
	if err := s.createSegment(s.activeSeq + 1); err != nil {
		return err
	}
	if err := s.fs.SyncDir(s.dir); err != nil {
		return err
	}
	s.mu.Lock()
	s.rotations++
	s.mu.Unlock()
	return nil
}

// Seal writes a durable seal frame to the active segment and closes the
// store: the log ends on a cleanly terminated history instead of an open
// tail, so the next Open starts a fresh segment with zero repair work.
// It is the graceful-shutdown counterpart to Close (which leaves the tail
// open, as a crash would). A poisoned store cannot be trusted to write
// the seal; Seal then just releases the handle — every acknowledged
// append is already durable.
func (s *Store) Seal() error {
	if s.readOnly {
		return ErrReadOnly
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active == nil {
		return nil
	}
	if s.poison != nil {
		err := s.active.Close()
		s.active = nil
		return err
	}
	seal := appendFrame(nil, kindSeal, nil)
	if n, err := s.active.Write(seal); err != nil || n < len(seal) {
		return s.poisonWith(fmt.Errorf("studystore: seal %s: %w", segName(s.activeSeq), writeErr(n, len(seal), err)))
	}
	//autolint:ignore lockheld wmu is the WAL barrier: the final seal must be durable before the handle is released
	if err := s.active.Sync(); err != nil {
		return s.poisonWith(fmt.Errorf("studystore: seal sync %s: %w", segName(s.activeSeq), err))
	}
	s.countFsyncs(1)
	err := s.active.Close()
	s.active = nil
	if err != nil {
		return fmt.Errorf("studystore: close %s: %w", segName(s.activeSeq), err)
	}
	return nil
}

// Rotate seals the active segment and starts a fresh one.
func (s *Store) Rotate() error {
	if s.readOnly {
		return ErrReadOnly
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.poison != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, s.poison)
	}
	if err := s.rotateLocked(); err != nil {
		return s.poisonWith(err)
	}
	return nil
}

// Compact checkpoints the live record set and drops the segments it
// supersedes. The sequence is crash-safe at every step:
//
//  1. rotate — seal the active segment so the snapshot covers a frozen
//     prefix of the log;
//  2. write the snapshot to a temp file and fsync it;
//  3. rename it into place and fsync the directory (the commit point);
//  4. remove superseded segments and older snapshots, fsync again.
//
// A crash before step 3 leaves only a stale temp file (removed at next
// Open); a crash during step 4 leaves extra segments whose records the
// snapshot already covers (finished at next Open). Compact refuses to
// run while quarantined bytes exist — destroying segments would silently
// drop the damaged ranges.
func (s *Store) Compact() error {
	if s.readOnly {
		return ErrReadOnly
	}
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.poison != nil {
		return fmt.Errorf("%w (cause: %v)", ErrPoisoned, s.poison)
	}
	// quarantined is fixed at Open; reading it without mu is safe.
	if len(s.quarantined) > 0 {
		return ErrQuarantined
	}
	if err := s.rotateLocked(); err != nil {
		return s.poisonWith(err)
	}
	covered := s.activeSeq - 1
	if err := s.writeSnapshot(covered); err != nil {
		return s.poisonWith(err)
	}
	// Commit point passed: drop everything the snapshot supersedes.
	oldSnap := s.snapSeq
	for seq := uint64(1); seq <= covered; seq++ {
		if !s.liveSegs[seq] {
			continue
		}
		if err := s.fs.RemoveFile(join(s.dir, segName(seq))); err != nil {
			return s.poisonWith(fmt.Errorf("studystore: remove %s: %w", segName(seq), err))
		}
		s.mu.Lock()
		delete(s.liveSegs, seq)
		s.mu.Unlock()
	}
	if oldSnap > 0 && oldSnap < covered {
		if err := s.fs.RemoveFile(join(s.dir, snapName(oldSnap))); err != nil {
			return s.poisonWith(fmt.Errorf("studystore: remove %s: %w", snapName(oldSnap), err))
		}
	}
	//autolint:ignore lockheld compaction is write-path work: wmu is held across the directory barrier by design; index readers use mu and do not wait here
	if err := s.fs.SyncDir(s.dir); err != nil {
		return s.poisonWith(err)
	}
	s.mu.Lock()
	s.snapSeq = covered
	s.compactions++
	s.mu.Unlock()
	return nil
}

// writeSnapshot writes, fsyncs, and atomically publishes the snapshot
// covering all segments with seq <= covered. Caller holds wmu, which
// excludes every index writer, so the record set is read without mu —
// concurrent Records/Studies calls proceed while the snapshot syncs.
func (s *Store) writeSnapshot(covered uint64) error {
	tmpName := join(s.dir, fmt.Sprintf("snap-%016x.tmp", covered))
	f, err := s.fs.Create(tmpName)
	if err != nil {
		return fmt.Errorf("studystore: create snapshot temp: %w", err)
	}
	buf := fileHeader(snapMagic, covered)
	count := 0
	for _, study := range s.studiesLocked() {
		recs := append([]Record(nil), s.studies[study]...)
		sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
		for _, rec := range recs {
			buf, err = appendRecordFrame(buf, rec)
			if err != nil {
				//autolint:ignore droppederr already failing; the close error is secondary
				f.Close()
				return err
			}
			count++
		}
	}
	var footer [8]byte
	binary.LittleEndian.PutUint64(footer[:], uint64(count))
	buf = appendFrame(buf, kindFooter, footer[:])
	if n, err := f.Write(buf); err != nil || n < len(buf) {
		//autolint:ignore droppederr already failing; the close error is secondary
		f.Close()
		return fmt.Errorf("studystore: write snapshot: %w", writeErr(n, len(buf), err))
	}
	if err := f.Sync(); err != nil {
		//autolint:ignore droppederr already failing; the close error is secondary
		f.Close()
		return fmt.Errorf("studystore: sync snapshot: %w", err)
	}
	s.countFsyncs(1)
	if err := f.Close(); err != nil {
		return fmt.Errorf("studystore: close snapshot: %w", err)
	}
	if err := s.fs.Rename(tmpName, join(s.dir, snapName(covered))); err != nil {
		return fmt.Errorf("studystore: publish snapshot: %w", err)
	}
	return s.fs.SyncDir(s.dir)
}

// Records returns the study's records sorted by ID (first occurrence of
// each ID wins). The returned slice is the caller's; payloads are shared
// and must be treated as read-only.
func (s *Store) Records(study string) []Record {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := append([]Record(nil), s.studies[study]...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Studies lists the studies with at least one record, sorted.
func (s *Store) Studies() []string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.studiesLocked()
}

// studiesLocked lists the studies; the caller holds mu, or wmu (which
// excludes every index writer).
func (s *Store) studiesLocked() []string {
	out := make([]string, 0, len(s.studies))
	for study := range s.studies {
		out = append(out, study)
	}
	sort.Strings(out)
	return out
}

// QueueDepth reports the append batches currently waiting in the
// group-commit queue: an instantaneous gauge of commit pressure.
func (s *Store) QueueDepth() int {
	s.qmu.Lock()
	defer s.qmu.Unlock()
	return len(s.queue)
}

// Quarantine reports every damaged byte range recovery found.
func (s *Store) Quarantine() []Quarantined {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Quarantined(nil), s.quarantined...)
}

// Stats returns a snapshot of store state and handle activity.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Records:       s.nrecords,
		Studies:       len(s.studies),
		Segments:      len(s.liveSegs),
		ActiveSeq:     s.activeSeq,
		SnapshotSeq:   s.snapSeq,
		Appended:      s.appended,
		Rotations:     s.rotations,
		Compactions:   s.compactions,
		TornTailBytes: s.tornTailBytes,
		Quarantined:   len(s.quarantined),
		Fsyncs:        s.fsyncs,
		Groups:        s.groups,
		GroupBatches:  s.groupBatches,
		MaxGroup:      s.maxGroup,
		AppendedBytes: s.appendedBytes,
		Poisoned:      s.poisoned,
	}
}

// Close closes the active segment handle. Every acknowledged append is
// already durable, so Close performs no flushing of its own.
func (s *Store) Close() error {
	s.wmu.Lock()
	defer s.wmu.Unlock()
	if s.active == nil {
		return nil
	}
	err := s.active.Close()
	s.active = nil
	return err
}

// hdrSeq reads the sequence number from a 16-byte file header.
func hdrSeq(data []byte) uint64 { return binary.LittleEndian.Uint64(data[8:16]) }
