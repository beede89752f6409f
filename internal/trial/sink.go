package trial

import (
	"errors"
	"fmt"

	"autotune/internal/space"
	"autotune/internal/studystore"
)

// ErrJournalCorrupt marks a journal with a damaged interior record: a
// record that passed the store's CRC check yet failed to parse, which a
// crash mid-append cannot produce (only the tail can tear). The journal's
// prefix semantics are broken and the damage must be inspected, not
// skipped.
var ErrJournalCorrupt = errors.New("trial: corrupt interior journal record")

// JournalSink receives every batch of completed trials before the
// optimizer observes it — the write-ahead contract (see Study).
// Implementations must make the whole batch durable before returning nil.
// StudyJournal is the one shipped implementation; tests may substitute
// their own.
type JournalSink interface {
	Append(batch []TrialRecord) error
}

// StudyJournal adapts one study inside a crash-safe segmented study
// store (internal/studystore) to the JournalSink contract: every Append
// is CRC-framed and fsync'd before it returns, segments rotate and
// compact underneath, and recovery quarantines corruption instead of
// silently skipping it. Multiple studies share one store directory.
// Close closes the store, so a journal over a store somebody else owns
// (NewStudyJournal) is simply never closed.
//
// A killed session resumes from the same handle it journals into:
//
//	sj, err := OpenStudyJournal(dir, study)
//	defer sj.Close()
//	history, err := sj.Records(env.Space())
//	s := NewStudy(opt, sj)
//	err = s.Replay(history)
//	rep, err := Run(s, env, opts)
type StudyJournal struct {
	store *studystore.Store
	study string
}

var _ JournalSink = (*StudyJournal)(nil)

// OpenStudyJournal opens (creating if needed) the segmented study store
// at dir and returns a sink journaling trials into the named study.
func OpenStudyJournal(dir, study string) (*StudyJournal, error) {
	if study == "" {
		study = "default"
	}
	st, err := studystore.Open(dir, studystore.Options{})
	if err != nil {
		return nil, err
	}
	return NewStudyJournal(st, study), nil
}

// NewStudyJournal returns a sink journaling trials into the named study of
// an already open store.
func NewStudyJournal(st *studystore.Store, study string) *StudyJournal {
	return &StudyJournal{store: st, study: study}
}

// Append implements JournalSink: the batch is durable, under one fsync
// barrier, when it returns.
func (sj *StudyJournal) Append(batch []TrialRecord) error {
	recs := make([]studystore.Record, len(batch))
	for i := range batch {
		data, err := EncodeRecord(batch[i])
		if err != nil {
			return err
		}
		recs[i] = studystore.Record{Study: sj.study, ID: int64(batch[i].ID), Payload: data}
	}
	return sj.store.AppendBatch(recs)
}

// Close closes the underlying store.
func (sj *StudyJournal) Close() error { return sj.store.Close() }

// Store exposes the underlying store (stats, compaction, quarantine).
func (sj *StudyJournal) Store() *studystore.Store { return sj.store }

// Records loads this study's records, sorted by trial ID with duplicates
// dropped, and types every config against sp (JSON gives back float64
// for an int knob). Payloads already passed CRC validation, so a record
// that fails to parse or normalize is real corruption, not a torn write —
// it surfaces as ErrJournalCorrupt.
func (sj *StudyJournal) Records(sp *space.Space) ([]TrialRecord, error) {
	recs := sj.store.Records(sj.study)
	out := make([]TrialRecord, 0, len(recs))
	for _, r := range recs {
		rec, err := DecodeRecord(r.Payload)
		if err == nil {
			rec.Config, err = sp.Normalize(rec.Config)
		}
		if err != nil {
			return nil, fmt.Errorf("%w: study %q record %d: %v",
				ErrJournalCorrupt, r.Study, r.ID, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
