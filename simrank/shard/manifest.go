package shard

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"oipsr/graph"
	"oipsr/internal/atomicio"
	"oipsr/internal/walkindex"
	"oipsr/simrank/query"
)

// The shard manifest binds a shard directory together: which files cover
// which vertex ranges, under which build parameters, with which checksums.
// It is the unit of deployment consistency — a shard fleet whose members
// loaded from one manifest is guaranteed to be an exact partition of one
// single-node index, because the manifest pins (n, c, k, walks, seed) and
// the per-file CRCs pin the bytes.
//
// On disk the manifest is two lines: a JSON document, then
// "crc32 <8 hex digits>" over the JSON bytes — the same
// corruption-detection stance as the binary index formats, kept
// line-oriented so operators can still read and diff it. Both the manifest
// and every shard file are published with the fsync-then-rename idiom
// (oipsr/internal/atomicio; a shard file through walkindex.PublishFile,
// which also removes the edit log of the file it replaces), so a crashed
// build never leaves a torn directory, only a missing one.

// ManifestVersion is the current manifest format revision.
const ManifestVersion = 1

// ManifestName is the manifest's filename inside a shard directory.
const ManifestName = "manifest.json"

// Sentinel errors returned by LoadManifest / OpenShard.
var (
	ErrManifestCorrupt = errors.New("shard: manifest checksum mismatch (corrupted manifest)")
	ErrManifestVersion = errors.New("shard: unsupported manifest version")
	ErrShardChecksum   = errors.New("shard: shard file does not match its manifest checksum")
)

// FileInfo describes one shard file of a manifest.
type FileInfo struct {
	Range
	File string `json:"file"`
	// CRC32 is 8 hex digits of the CRC-32 (IEEE) over the file EXCLUDING
	// its own 4-byte trailer — i.e. the same value the trailer stores.
	// Hashing the whole file would be useless for binding files to ranges:
	// CRC-32's residue property makes every message-plus-its-own-CRC hash
	// to the constant 0x2144df1c, so all valid shard files would share one
	// "checksum" and a swapped file would sail through.
	CRC32 string `json:"crc32"`
	Bytes int64  `json:"bytes"`
}

// Manifest describes a complete shard directory.
type Manifest struct {
	Version int     `json:"version"`
	N       int     `json:"n"`
	C       float64 `json:"c"`
	K       int     `json:"k"`
	Walks   int     `json:"walks"`
	Seed    int64   `json:"seed"`
	// Format is the on-disk format version of every shard file
	// (query.FormatVersion). Manifests of the retired format 1 — which
	// omit the field or say 1 — are rejected by LoadManifest.
	Format int        `json:"format,omitempty"`
	Shards []FileInfo `json:"shards"`
}

// BuildAll plans a `shards`-way partition of g, builds every shard file,
// and publishes them to dir (created if missing) with a sealed manifest.
// Every shard is streamed: its walks are generated in slices of
// query.StreamSliceBytes of walks and encoded straight to its file, so
// peak builder memory is bounded by the slice, not by the widest shard.
// Every file lands via write-temp/fsync/rename, the manifest last, so a
// reader that finds a manifest finds every file it names, complete. The
// shard rows are collectively bit-identical to query.BuildIndex(g, opt).
func BuildAll(g *graph.Graph, opt query.Options, dir string, shards int) (*Manifest, error) {
	plan, err := Plan(g.NumVertices(), shards)
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{Version: ManifestVersion, N: g.NumVertices(), Format: query.FormatVersion}
	for i, r := range plan {
		name := fmt.Sprintf("shard-%04d.srwk", i)
		// st carries the resolved parameters (defaults filled, K derived from
		// Eps) — the manifest records what was built, not the possibly-zero
		// request — and the trailer CRC, which is the manifest's convention.
		var st *walkindex.StreamStats
		err := walkindex.PublishFile(filepath.Join(dir, name), func(f *os.File) error {
			var err error
			st, err = walkindex.BuildStreaming(g, opt, r.Lo, r.Hi, walkindex.ShardFile, f, query.StreamSliceBytes)
			return err
		})
		if err != nil {
			return nil, err
		}
		if i == 0 {
			m.C, m.K, m.Walks, m.Seed = st.C, st.K, st.Walks, st.Seed
		}
		m.Shards = append(m.Shards, FileInfo{
			Range: r,
			File:  name,
			CRC32: fmt.Sprintf("%08x", st.CRC32),
			Bytes: st.Bytes,
		})
	}
	if err := WriteManifest(dir, m); err != nil {
		return nil, err
	}
	return m, nil
}

// WriteManifest seals and atomically publishes m as dir/ManifestName.
func WriteManifest(dir string, m *Manifest) error {
	doc, err := json.Marshal(m)
	if err != nil {
		return err
	}
	return atomicio.WriteFile(filepath.Join(dir, ManifestName), func(w io.Writer) error {
		_, err := fmt.Fprintf(w, "%s\ncrc32 %08x\n", doc, crc32.ChecksumIEEE(doc))
		return err
	})
}

// LoadManifest reads and verifies dir/ManifestName: the checksum line must
// match the document, the version must be this build's, and the shard
// ranges must form a contiguous partition of [0, n).
func LoadManifest(dir string) (*Manifest, error) {
	data, err := os.ReadFile(filepath.Join(dir, ManifestName))
	if err != nil {
		return nil, err
	}
	doc, tail, ok := bytes.Cut(data, []byte{'\n'})
	if !ok {
		return nil, fmt.Errorf("%w: missing checksum line", ErrManifestCorrupt)
	}
	var stored uint32
	if _, err := fmt.Sscanf(string(bytes.TrimSpace(tail)), "crc32 %08x", &stored); err != nil {
		return nil, fmt.Errorf("%w: malformed checksum line", ErrManifestCorrupt)
	}
	if got := crc32.ChecksumIEEE(doc); got != stored {
		return nil, fmt.Errorf("%w: stored %08x, computed %08x", ErrManifestCorrupt, stored, got)
	}
	var m Manifest
	if err := json.Unmarshal(doc, &m); err != nil {
		return nil, fmt.Errorf("shard: parsing manifest: %w", err)
	}
	if m.Version != ManifestVersion {
		return nil, fmt.Errorf("%w: manifest has version %d, this build reads version %d", ErrManifestVersion, m.Version, ManifestVersion)
	}
	if m.N < 0 || m.K < 1 || m.Walks < 1 || !(m.C > 0 && m.C < 1) {
		return nil, fmt.Errorf("shard: invalid manifest parameters (n=%d, k=%d, walks=%d, c=%v)", m.N, m.K, m.Walks, m.C)
	}
	// A manifest without the field predates it and describes format-1
	// files, like one that says 1.
	if m.Format != query.FormatVersion {
		return nil, fmt.Errorf("shard: manifest declares shard file format %d, this build reads format %d only — rebuild the shard directory",
			max(m.Format, 1), query.FormatVersion)
	}
	next := 0
	for i, fi := range m.Shards {
		if fi.Lo != next || fi.Hi < fi.Lo {
			return nil, fmt.Errorf("shard: manifest shard %d range [%d,%d) breaks the partition at %d", i, fi.Lo, fi.Hi, next)
		}
		if fi.File == "" || fi.File != filepath.Base(fi.File) {
			return nil, fmt.Errorf("shard: manifest shard %d has invalid file name %q", i, fi.File)
		}
		next = fi.Hi
	}
	if next != m.N {
		return nil, fmt.Errorf("shard: manifest shards cover [0,%d) of [0,%d)", next, m.N)
	}
	return &m, nil
}

// OpenShard loads shard i of a manifest from dir into memory — with
// mapped, as an index that makes every edit batch durable beside the
// shard file (see query.LoadFileMapped) — verifying the file against the
// manifest's checksum, by a streaming read that never holds more than a
// buffer of it, and the loaded parameters against the manifest's before
// trusting it. A shard file with edits in its edit log is an edited
// shard, no longer the manifest's, and is refused with ErrShardChecksum
// like one whose edits a checkpoint wrote into it. The returned shard has
// no graph attached; call AttachGraph before serving.
func OpenShard(dir string, m *Manifest, i int, mapped bool) (*Shard, error) {
	if i < 0 || i >= len(m.Shards) {
		return nil, fmt.Errorf("shard: shard ordinal %d outside [0,%d)", i, len(m.Shards))
	}
	fi := m.Shards[i]
	path := filepath.Join(dir, fi.File)
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	if st.Size() < 4 {
		return nil, fmt.Errorf("%w: %s is %d bytes", ErrShardChecksum, fi.File, st.Size())
	}
	crc := crc32.NewIEEE()
	if _, err := io.Copy(crc, io.LimitReader(f, st.Size()-4)); err != nil {
		return nil, err
	}
	if got := fmt.Sprintf("%08x", crc.Sum32()); got != fi.CRC32 {
		return nil, fmt.Errorf("%w: %s has crc %s, manifest says %s", ErrShardChecksum, fi.File, got, fi.CRC32)
	}
	if pending, err := walkindex.LogPending(path, st.Size(), crc.Sum32()); err != nil {
		return nil, err
	} else if pending {
		return nil, fmt.Errorf("%w: %s has edits in its edit log", ErrShardChecksum, fi.File)
	}
	var wi *walkindex.Index
	if mapped {
		wi, err = walkindex.LoadWriteBack(path, walkindex.ShardFile)
	} else if _, err = f.Seek(0, io.SeekStart); err == nil {
		wi, err = walkindex.Load(f, walkindex.ShardFile)
	}
	if err != nil {
		return nil, err
	}
	if wi.N() != m.N || wi.Lo() != fi.Lo || wi.Hi() != fi.Hi ||
		wi.C() != m.C || wi.Horizon() != m.K || wi.Walks() != m.Walks || wi.Seed() != m.Seed {
		wi.Close()
		return nil, fmt.Errorf("shard: %s does not match its manifest entry (n=%d [%d,%d) c=%v k=%d r=%d seed=%d)",
			fi.File, wi.N(), wi.Lo(), wi.Hi(), wi.C(), wi.Horizon(), wi.Walks(), wi.Seed())
	}
	ix, err := query.NewIndex(wi, nil)
	if err != nil {
		wi.Close()
		return nil, err
	}
	return &Shard{ix}, nil
}
