package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"time"

	"legodb"
)

// snapshotter times the operator's path through a store snapshot:
// legodbd's -store-dir drain (Store.SaveFile) and restart (reopening
// the file). Its cycles run as maintenance during the timed loop.
type snapshotter struct {
	path         string
	rec          *recorder
	saves, opens latencies
}

func openWithStore(path string) func() error {
	return func() error {
		_, err := legodb.OpenStoreFile(path)
		return err
	}
}

// cycle saves store to s.path and runs reopen, timing both.
func (s *snapshotter) cycle(store *legodb.Store, reopen func() error) error {
	// Each cycle starts from a collected heap, so a GC cycle owed by the
	// ops before it does not land in a few-millisecond save.
	runtime.GC()
	s.rec.nextOp()
	root := s.rec.begin("snapshot", -1)
	defer s.rec.end(root)
	if s.rec != nil {
		// Encoding alone; the gap to fsio.save_file is write, fsync and
		// rename.
		sp := s.rec.begin("legodb.save_encode", root)
		var buf bytes.Buffer
		err := store.Save(&buf)
		s.rec.end(sp)
		if err != nil {
			return err
		}
	}
	sp := s.rec.begin("fsio.save_file", root)
	start := time.Now()
	err := store.SaveFile(s.path)
	s.saves = append(s.saves, float64(time.Since(start))/1e6)
	s.rec.end(sp)
	if err != nil {
		return err
	}
	sp = s.rec.begin("colfile.open", root)
	start = time.Now()
	err = reopen()
	s.opens = append(s.opens, float64(time.Since(start))/1e6)
	s.rec.end(sp)
	return err
}

// every returns maintenance that runs a cycle on the current store and
// waits nine times the cycle's length before the next, so snapshots
// take about a tenth of the loop.
func (s *snapshotter) every(store func() *legodb.Store) *maintenance {
	var next time.Time
	return &maintenance{
		due: func() bool { return !time.Now().Before(next) },
		run: func() error {
			start := time.Now()
			err := s.cycle(store(), openWithStore(s.path))
			next = time.Now().Add(9 * time.Since(start))
			return err
		},
	}
}

// finish checks the snapshot after the loop: the reopened store must
// publish byte-identically to the live one, and the file's size gives
// the bytes stored per XML byte. It tops the timed cycles up to the
// scale's minimum (a smoke run's loop is too short for any) and reports
// their medians.
func (s *snapshotter) finish(cfg config, store *legodb.Store, xmlBytes int, rep *report) error {
	for len(s.saves) < cfg.scale.snapshotCycles {
		if err := s.cycle(store, openWithStore(s.path)); err != nil {
			return err
		}
	}
	if err := store.SaveFile(s.path); err != nil {
		return err
	}
	fi, err := os.Stat(s.path)
	if err != nil {
		return err
	}
	rep.setE2E("store_bytes_per_xml_byte", float64(fi.Size())/float64(xmlBytes),
		fmt.Sprintf("%d snapshot bytes for %d XML bytes", fi.Size(), xmlBytes))
	reopened, err := legodb.OpenStoreFile(s.path)
	if err != nil {
		return err
	}
	live, err := publishText(store)
	if err != nil {
		return err
	}
	back, err := publishText(reopened)
	if err != nil {
		return err
	}
	if back != live {
		rep.count(fmt.Errorf("reopened snapshot publishes differently from the live store"))
	} else {
		rep.count(nil)
	}
	sv, op := s.saves.sorted(), s.opens.sorted()
	rep.setE2E("snapshot_save_ms", quantile(sv, 0.5), fmt.Sprintf("median of %d SaveFile during the loop, min %.4g, max %.4g", len(sv), sv[0], sv[len(sv)-1]))
	rep.setE2E("snapshot_open_ms", quantile(op, 0.5), fmt.Sprintf("median of %d reopens during the loop, min %.4g, max %.4g", len(op), op[0], op[len(op)-1]))
	return nil
}

func publishText(store *legodb.Store) (string, error) {
	docs, err := store.Publish()
	if err != nil {
		return "", err
	}
	var b bytes.Buffer
	for _, d := range docs {
		b.WriteString(d.String())
	}
	return b.String(), nil
}
