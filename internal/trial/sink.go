package trial

import (
	"errors"
	"fmt"
	"os"

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
	Close() error
}

// StudyJournal adapts one study inside a crash-safe segmented study
// store (internal/studystore) to the JournalSink contract: every Append
// is CRC-framed and fsync'd before it returns, segments rotate and
// compact underneath, and recovery quarantines corruption instead of
// silently skipping it. Multiple studies share one store directory.
// Close closes the store, so a journal over a store somebody else owns
// (NewStudyJournal) is simply never closed.
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

// ReadStudyJournal loads one study's records from the store at dir,
// sorted by trial ID with duplicates dropped. A missing directory is an
// empty journal, not an error. Payloads already passed CRC validation,
// so a parse failure is real corruption, not a torn write — it surfaces
// as ErrJournalCorrupt.
func ReadStudyJournal(dir, study string) ([]TrialRecord, error) {
	if study == "" {
		study = "default"
	}
	if _, err := os.Stat(dir); os.IsNotExist(err) {
		return nil, nil
	}
	st, err := studystore.Open(dir, studystore.Options{ReadOnly: true})
	if err != nil {
		return nil, err
	}
	defer st.Close()
	recs := st.Records(study)
	out := make([]TrialRecord, 0, len(recs))
	for _, r := range recs {
		rec, err := DecodeRecord(r.Payload)
		if err != nil {
			return nil, fmt.Errorf("%w: store %s study %q record %d: %v",
				ErrJournalCorrupt, dir, r.Study, r.ID, err)
		}
		out = append(out, rec)
	}
	return out, nil
}
