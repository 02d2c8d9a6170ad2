package walkindex

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"io/fs"
	"os"
	"path/filepath"

	"oipsr/internal/atomicio"
)

// The edit log: what makes an edit batch durable on a write-back index.
//
// An Update on an index from LoadWriteBack appends one record to a
// sidecar file beside the index file, path + ".log", and fsyncs it: the
// cost of the batch, not of the file. The log holds the repaired walks
// themselves, not the edge edits, so it replays without the graph — a
// path-based open (LoadFile, LoadWriteBack) decodes the file and then
// applies the log's records in order onto the decoded rows. Layout (all
// integers little-endian):
//
//	header   8   magic "SRWKLOG\x00"
//	         4   log version (1)
//	         8   base size: the byte size of the index file the log extends
//	         4   base CRC: that file's trailer checksum
//	         4   CRC-32 (IEEE) of the 24 bytes above
//	record   uvarint  payload length
//	         payload  per repaired walk, ascending by store-local id
//	                  (v-lo)·R + fp: the uvarint id delta from the walk
//	                  before (from -1 for the first, so every delta is at
//	                  least 1), then the walk's live path as appendWalk
//	                  encodes it with no previous walk
//	         4   CRC-32 (IEEE) of the length and the payload
//
// A log applies only to the file its header names: a log beside another
// file — one rebuilt or checkpointed since — is stale and ignored. Replay
// stops at the first record that is torn, fails its CRC or does not
// decode to walks the index can hold (ids below width·R, entries in
// [0, n), live lengths at most K), so a crash mid-append loses that batch
// and nothing before it, and no content of a log ever fails an open (a
// log that cannot be read does). Replay's scratch is k entries and R
// walks whatever the log says; beyond it, what replay allocates follows
// the walks the log actually holds.
//
// The checkpoint (writeback.go) publishes the file Save writes for the
// current rows and then removes the log. Update checkpoints
// instead of appending once the log has reached 1/logShare of the file,
// and on the batch after a failed append or checkpoint — a log that missed
// a batch, or ends in a torn record, is never appended to again; Close
// checkpoints whatever the log holds. A crash between the checkpoint's
// rename and the log's removal leaves a log naming the old file, which the
// next open ignores. Every other writer of a file at path — Save through
// PublishFile, a streamed build — removes the log
// before it publishes, so a log can never replay onto a fresh file that
// happens to have its base's bytes.

// logShare sets the checkpoint threshold: Update rewrites the file once
// the log holds 1/logShare of the file's bytes. A checkpoint costs a whole
// Save whatever the share; on the mapped-edits shape (n = 15000, R = 100)
// a quarter spreads its ~55 ms over ~75 batches of ~18 KB, ~0.8 ms a
// batch on top of the ~0.9 ms append, where an eighth spread it over ~36.
const logShare = 4

const logVersion = 1

var logMagic = [8]byte{'S', 'R', 'W', 'K', 'L', 'O', 'G', 0}

// logHeaderLen is the header's size: magic, version, base size, base CRC
// and the header's own CRC.
const logHeaderLen = 8 + 4 + 8 + 4 + 4

// logPath returns the path of the edit log beside the index file at path.
func logPath(path string) string { return path + ".log" }

// logHeader returns the header of a log over the file of the given size
// and trailer checksum.
func logHeader(size int64, crc uint32) []byte {
	h := make([]byte, 0, logHeaderLen)
	h = append(h, logMagic[:]...)
	h = binary.LittleEndian.AppendUint32(h, logVersion)
	h = binary.LittleEndian.AppendUint64(h, uint64(size))
	h = binary.LittleEndian.AppendUint32(h, crc)
	return binary.LittleEndian.AppendUint32(h, crc32.ChecksumIEEE(h))
}

// readLog returns the records of the log beside path when its header
// names the file of the given size and checksum, and ok = false when there
// is no such log: none at all, or one whose header is torn, of another
// version, or over another file. A log that cannot be read is an error.
func readLog(path string, size int64, crc uint32) (body []byte, ok bool, err error) {
	f, err := os.Open(logPath(path))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, fmt.Errorf("walkindex: opening the edit log: %w", err)
	}
	defer f.Close()
	hdr := make([]byte, logHeaderLen)
	_, err = io.ReadFull(f, hdr)
	switch {
	case errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF):
		return nil, false, nil // a torn header: no record was ever whole
	case err != nil:
		return nil, false, fmt.Errorf("walkindex: reading the edit log: %w", err)
	case !bytes.Equal(hdr, logHeader(size, crc)):
		return nil, false, nil // another version, or another file's log
	}
	if body, err = io.ReadAll(f); err != nil {
		return nil, false, fmt.Errorf("walkindex: reading the edit log: %w", err)
	}
	return body, true, nil
}

// nextRecord splits the first record off body and returns its payload
// and its length in bytes, or ok = false when body does not open with a
// whole record whose CRC holds.
func nextRecord(body []byte) (payload []byte, used int, ok bool) {
	plen, w := binary.Uvarint(body)
	if w <= 0 || plen > uint64(len(body)-w) || uint64(len(body)-w)-plen < 4 {
		return nil, 0, false
	}
	end := w + int(plen)
	if crc32.ChecksumIEEE(body[:end]) != binary.LittleEndian.Uint32(body[end:]) {
		return nil, 0, false
	}
	return body[w:end], end + 4, true
}

// removeLog deletes the edit log beside path, if there is one, and makes
// the deletion durable.
func removeLog(path string) error {
	err := os.Remove(logPath(path))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return err
	}
	return atomicio.SyncDir(filepath.Dir(path))
}

// PublishFile writes a new file at path through write, atomically
// (atomicio.WriteFileAt), and removes path's edit log once the new bytes
// are written, before they are published: the log describes the old
// file. Save's and the streamed builds' path-based callers publish
// through it.
func PublishFile(path string, write func(*os.File) error) error {
	return atomicio.WriteFileAt(path, func(f *os.File) error {
		if err := write(f); err != nil {
			return err
		}
		return removeLog(path)
	})
}

// appendRecord appends to dst the record of the repaired store-local
// walks, ascending, as the rows hold them now.
func (ix *Index) appendRecord(dst, scratch []byte, walks []int32) (rec, payload []byte) {
	payload, prev := scratch[:0], int32(-1)
	for _, w := range walks {
		payload = binary.AppendUvarint(payload, uint64(w-prev))
		payload = appendWalk(payload, ix.store.row(int(w)/ix.r).walk(int(w)%ix.r), nil)
		prev = w
	}
	start := len(dst)
	dst = binary.AppendUvarint(dst, uint64(len(payload)))
	dst = append(dst, payload...)
	return binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(dst[start:])), payload
}

// scanRecord decodes a record's payload walk by walk into path (k
// entries, -1 past the walk's death) and hands each store-local id and
// path to fn when fn is not nil. It returns false at the first walk that
// is malformed or that the index cannot hold: an id not above the one
// before or not below width·R, an entry outside [0, n).
func (ix *Index) scanRecord(payload []byte, path []int32, fn func(id int, path []int32)) bool {
	walks, id := int64(ix.Width())*int64(ix.r), int64(-1)
	for pos := 0; pos < len(payload); {
		d, w := binary.Uvarint(payload[pos:])
		if w <= 0 || d == 0 || d >= uint64(walks-id) {
			return false
		}
		id, pos = id+int64(d), pos+w
		used, _, top, err := decodeWalk(payload[pos:], path, nil, 0)
		if err != nil || int(top) >= ix.n {
			return false
		}
		pos += used
		if fn != nil {
			fn(int(id), path)
		}
	}
	return true
}

// replay applies the records of a log body onto the rows in order and
// returns the bytes of body its valid records take. It stops at the first
// record that is torn, fails its CRC or does not decode, and applies no
// part of that one.
func (ix *Index) replay(body []byte) (valid int) {
	path := make([]int32, ix.k)
	fps, paths := make([]int, 0, ix.r), make([]int32, 0, ix.r*ix.k)
	for valid < len(body) {
		payload, used, ok := nextRecord(body[valid:])
		if !ok || !ix.scanRecord(payload, path, nil) {
			break
		}
		v := -1
		flush := func() {
			if len(fps) > 0 {
				ix.store.setWalks(v, fps, paths)
			}
			fps, paths = fps[:0], paths[:0]
		}
		ix.scanRecord(payload, path, func(id int, p []int32) {
			if id/ix.r != v {
				flush()
				v = id / ix.r
			}
			fps, paths = append(fps, id%ix.r), append(paths, p...)
		})
		flush()
		valid += used
	}
	return valid
}

// replayLog replays the log beside path onto the rows when it names the
// file of the given size and checksum, and returns the log's length and
// how much of it is its header and whole records — less than its length
// when it ends in a torn or bad record, 0 when no log names the file.
func (ix *Index) replayLog(path string, size int64, crc uint32) (valid, total int64, err error) {
	body, ok, err := readLog(path, size, crc)
	if !ok || err != nil {
		return 0, 0, err
	}
	n := ix.replay(body)
	return logHeaderLen + int64(n), logHeaderLen + int64(len(body)), nil
}

// logWrite writes b to the open log file. It is a variable so tests can
// inject a failing or a torn append.
var logWrite = func(f *os.File, b []byte) (int, error) { return f.Write(b) }

// appendLog makes a batch durable: the record of its repaired walks is
// appended to the log and fsynced — after a new log's header, with the
// directory fsynced too, when the file has none yet. The log is opened
// by path for every append, so a log whose directory is gone fails the
// append rather than writing to an unlinked file. A failed append marks
// the log broken: the next batch checkpoints instead.
func (ix *Index) appendLog(walks []int32) error {
	bk := ix.file
	create := bk.logBytes == 0
	rec := bk.rec[:0]
	if create {
		rec = logHeader(bk.size, bk.crc)
	}
	rec, bk.body = ix.appendRecord(rec, bk.body, walks)
	bk.rec = rec
	if err := writeLog(logPath(bk.path), rec, create); err != nil {
		bk.logBroken = true
		return fmt.Errorf("%w %s: appending to its edit log: %w", ErrWriteBack, bk.path, err)
	}
	bk.logBytes += int64(len(rec))
	return nil
}

// writeLog appends b to the log at path and fsyncs it — with create, it
// starts the log afresh, replacing any stale one, and fsyncs the
// directory too.
func writeLog(path string, b []byte, create bool) error {
	flag := os.O_WRONLY | os.O_APPEND
	if create {
		flag = os.O_WRONLY | os.O_CREATE | os.O_TRUNC
	}
	f, err := os.OpenFile(path, flag, 0o644)
	if err != nil {
		return err
	}
	if _, err := logWrite(f, b); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if create {
		return atomicio.SyncDir(filepath.Dir(path))
	}
	return nil
}

// persist is Update's durable step on a write-back index: the batch's
// repaired walks are appended to the log, or the file checkpointed on
// workers goroutines when the log has reached its share of the file or is
// broken.
func (ix *Index) persist(walks []int32, workers int) error {
	if len(walks) == 0 {
		return nil
	}
	bk := ix.file
	if bk.logBroken || bk.logBytes >= bk.size/logShare {
		return ix.checkpoint(workers)
	}
	return ix.appendLog(walks)
}

// checkpoint publishes the file for the current rows (writeBack, its
// blocks encoded on workers goroutines: 1 = serial, <1 = all CPUs) and
// then removes the log, which the new file makes redundant. A failed
// checkpoint leaves the old file and its log, and marks the log broken:
// the batch that asked for the checkpoint is in neither.
func (ix *Index) checkpoint(workers int) error {
	bk := ix.file
	if err := ix.writeBack(workers); err != nil {
		bk.logBroken = true
		return err
	}
	bk.logBytes, bk.logBroken = 0, false
	if err := removeLog(bk.path); err != nil {
		return fmt.Errorf("%w %s: removing its edit log: %w", ErrWriteBack, bk.path, err)
	}
	return nil
}
