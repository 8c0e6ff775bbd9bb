// Package store is sperrd's content-addressed volume tier: a read-heavy
// scientific archive serves the same popular volumes and cutouts over and
// over, so instead of re-streaming and re-decoding on every request, the
// daemon ingests containers once and serves regions from two tiers.
//
// The compressed tier is on disk: each ingested container (v2 or v3)
// stream lives under <dir>/volumes/<id>.sperr, where the id is a
// content address — SHA-256 over the container bytes folded with a
// canonical compression-parameter tag, so the same volume compressed
// under the same contract always lands at the same address and an ingest
// is idempotent. Ingest is verified: every frame checksum is re-computed
// and cross-checked against the index footer's copy (sperr.Audit)
// before a byte is admitted, so the store never vouches for a container
// it could not prove intact. A MANIFEST.json records every resident
// volume (geometry, params, size, SHA-256, per-chunk boxes); manifest
// updates flow through a batched flush loop — concurrent ingests
// coalesce into one atomic manifest rewrite, and Put/Delete block until
// their entry is durably flushed.
//
// The decoded tier is in memory: a chunk-granularity cache (SlabCache) of
// decoded float64 slabs, LRU behind a frequency-gated admission rule.
// Region reads assemble their cutout from cached
// chunks and decode only the intersecting frames that are missing, via
// the container's seekable index footer (chunk.ReadChunks, one container
// parse per read). Cache residency is charged through the
// Charge/Release hooks against the same sample-denominated admission
// budget that bounds in-flight decodes, so cache memory and decode
// memory share one ceiling; under admission pressure the cache sheds
// from the cold end.
package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"sperr"
)

// Store errors. Handlers map them to HTTP statuses (404 for ErrNotFound,
// 422 for ErrCorrupt).
var (
	// ErrCorrupt: the container failed ingest-time integrity verification
	// (unparseable, damaged frames, or a v2 footer that does not
	// corroborate the frame checksums).
	ErrCorrupt = errors.New("store: container failed integrity verification")
	// ErrNotFound: no volume at that content address.
	ErrNotFound = errors.New("store: no such volume")
	// ErrClosed: the store has been closed.
	ErrClosed = errors.New("store: closed")
)

// ChunkGeom is one chunk's box in volume coordinates, recorded in the
// manifest so the region hit path never has to open the container to
// learn the tiling.
type ChunkGeom struct {
	Origin [3]int `json:"origin"`
	Dims   [3]int `json:"dims"`
}

// Meta is one ingested volume's manifest entry.
type Meta struct {
	// ID is the content address: hex SHA-256 over the container bytes
	// followed by the canonical parameter tag.
	ID string `json:"id"`
	// SHA256 is the hex digest of the container bytes alone — the value
	// the disk audit re-computes and cross-checks.
	SHA256 string `json:"sha256"`
	// Bytes is the container size on disk.
	Bytes int64 `json:"bytes"`
	// Version is the container format version (2 or 3).
	Version int `json:"version"`
	// Mode and Tolerance are the coding contract shared by every chunk of
	// the container.
	Mode      string  `json:"mode"`
	Tolerance float64 `json:"tolerance,omitempty"`
	// Dims is the volume extent; ChunkDims the chunk tiling bound.
	Dims      [3]int `json:"dims"`
	ChunkDims [3]int `json:"chunk_dims"`
	NumChunks int    `json:"num_chunks"`
	// Chunks lists each chunk's box in container order.
	Chunks []ChunkGeom `json:"chunks"`
	// Owned, when non-nil, marks this volume as a cluster shard: only the
	// listed chunk indices carry real frames (the rest are stubs). nil
	// means a complete volume — every chunk is resident. No omitempty:
	// an empty-but-present set (a peer owning zero chunks) must survive
	// the manifest round-trip distinct from nil.
	Owned []int `json:"owned"`
	// Ingested is the ingest wall-clock time (UTC).
	Ingested time.Time `json:"ingested"`
}

// OwnsChunk reports whether chunk index ci is backed by a real frame in
// this volume (always true for complete volumes).
func (m *Meta) OwnsChunk(ci int) bool {
	if m.Owned == nil {
		return true
	}
	for _, o := range m.Owned {
		if o == ci {
			return true
		}
	}
	return false
}

// paramsTag renders the compression contract as a canonical string; it is
// folded into the content address so "same bytes, different declared
// contract" can never collide. The literal "entropy=false" is what the tag
// carried for every raw-bit stream while the retired SPECK-AC layer
// existed; it stays so that no stored volume's address moves.
func paramsTag(info *sperr.StreamInfo) string {
	return fmt.Sprintf("v%d|%s|tol=%.17g|entropy=false|dims=%d,%d,%d|chunk=%d,%d,%d",
		info.Version, info.Mode, info.Tolerance,
		info.Dims[0], info.Dims[1], info.Dims[2],
		info.ChunkDims[0], info.ChunkDims[1], info.ChunkDims[2])
}

// contentID derives the content address from the container digest and the
// parameter tag.
func contentID(sum [sha256.Size]byte, tag string) string {
	h := sha256.New()
	h.Write(sum[:])
	h.Write([]byte{0})
	h.Write([]byte(tag))
	return hex.EncodeToString(h.Sum(nil))
}

// Hooks observes store and cache events, for wiring into a metrics
// registry. Every field may be nil. Callbacks run on request goroutines —
// keep them fast (counter bumps).
type Hooks struct {
	// OnIngest fires after a successful Put (created reports whether the
	// volume was new or an idempotent re-ingest).
	OnIngest func(bytes int64, created bool)
	// OnReject fires when an ingest fails integrity verification.
	OnReject func()
	// OnDelete fires after a successful Delete.
	OnDelete func()
	// OnHit / OnMiss count cache outcomes per chunk visited by Region.
	OnHit  func(chunks int)
	OnMiss func(chunks int)
	// OnDecode counts chunk frames actually decoded (the hit path keeps
	// this flat — the acceptance witness).
	OnDecode func(chunks int)
	// OnEvict fires per evicted slab with its sample count.
	OnEvict func(samples int64)
	// OnDecline fires per decoded slab the cache turned away (its
	// admission gate kept the resident slabs, or the shared budget was
	// busy), with its sample count; the read still serves the slab.
	OnDecline func(samples int64)
	// OnResident observes the cache residency gauge after every change.
	OnResident func(samples int64)
}

// Options tunes a Store. The zero value works: caching disabled.
type Options struct {
	// CacheSamples caps the decoded-slab cache residency in samples
	// (float64 values; x8 for bytes). <= 0 disables the decoded tier.
	CacheSamples int64
	// Charge/Release connect cache residency to an external budget (the
	// admission controller): Charge is a non-blocking attempt to reserve n
	// samples, Release returns them. nil hooks leave the cache bounded by
	// CacheSamples alone.
	Charge  func(samples int64) bool
	Release func(samples int64)
	// Hooks observes store events (metrics).
	Hooks Hooks
}

// Store is a content-addressed volume store: a verified on-disk
// compressed tier plus an in-memory decoded-slab cache. All methods are
// safe for concurrent use.
type Store struct {
	dir   string
	opts  Options
	cache *SlabCache
	bat   *batcher

	mu     sync.RWMutex
	vols   map[string]*Meta
	closed bool

	// ids serializes Put/Delete per content address so a concurrent
	// ingest and delete of the same volume cannot interleave their
	// blob-file and manifest steps.
	ids keyedMutex

	decodes atomic.Int64
}

const (
	manifestName = "MANIFEST.json"
	volumesDir   = "volumes"
	blobExt      = ".sperr"
)

// manifestFile is the on-disk manifest schema.
type manifestFile struct {
	Version int     `json:"version"`
	Volumes []*Meta `json:"volumes"`
}

// Open loads (or initializes) the store rooted at dir.
func Open(dir string, opts Options) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, volumesDir), 0o755); err != nil {
		return nil, err
	}
	s := &Store{
		dir:  dir,
		opts: opts,
		vols: make(map[string]*Meta),
	}
	s.cache = newSlabCache(opts.CacheSamples, opts.Charge, opts.Release,
		opts.Hooks.OnEvict, opts.Hooks.OnResident)
	s.cache.onDecline = opts.Hooks.OnDecline

	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	switch {
	case err == nil:
		var mf manifestFile
		if err := json.Unmarshal(raw, &mf); err != nil {
			return nil, fmt.Errorf("store: manifest unreadable: %w", err)
		}
		for _, m := range mf.Volumes {
			s.vols[m.ID] = m
		}
	case os.IsNotExist(err):
		// Fresh store.
	default:
		return nil, err
	}

	s.bat = newBatcher(s.applyBatch)
	return s, nil
}

// Dir returns the store root.
func (s *Store) Dir() string { return s.dir }

// Cache exposes the decoded-slab cache (the admission reclaimer sheds
// through it; tests assert on its residency).
func (s *Store) Cache() *SlabCache { return s.cache }

// Decodes returns the total number of chunk frames this store has decoded
// on region misses — the flat-on-hit instrumentation counter.
func (s *Store) Decodes() int64 { return s.decodes.Load() }

// Len returns the number of resident volumes.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.vols)
}

// TotalBytes returns the compressed tier's aggregate size.
func (s *Store) TotalBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var n int64
	for _, m := range s.vols {
		n += m.Bytes
	}
	return n
}

// blobPath is the container file for an id.
func (s *Store) blobPath(id string) string {
	return filepath.Join(s.dir, volumesDir, id+blobExt)
}

// verify runs the ingest-time integrity gate: the container must
// describe, every frame must checksum clean, and the index footer must
// corroborate the frames (Audit's footer fast path re-computes each
// payload CRC against the index's copy).
func verify(container []byte) (*sperr.StreamInfo, error) {
	info, err := sperr.Describe(container)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rep, err := sperr.Audit(container)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if rep.Degraded() {
		return nil, fmt.Errorf("%w: %d of %d chunks damaged", ErrCorrupt, rep.Skipped, rep.NumChunks)
	}
	if rep.Resynced {
		return nil, fmt.Errorf("%w: frame boundaries damaged", ErrCorrupt)
	}
	if !rep.IndexIntact {
		return nil, fmt.Errorf("%w: index footer does not corroborate frames", ErrCorrupt)
	}
	return info, nil
}

// AddressOf runs the full ingest-time integrity gate on a complete
// container and returns the content address it would be stored under,
// along with its description. This is how a cluster coordinator names a
// volume before slicing it into per-peer shards: every shard is stored
// under the whole container's address, so placement and lookup agree on
// one id cluster-wide.
func AddressOf(container []byte) (string, *sperr.StreamInfo, error) {
	info, err := verify(container)
	if err != nil {
		return "", nil, err
	}
	sum := sha256.Sum256(container)
	return contentID(sum, paramsTag(info)), info, nil
}

// Put ingests a container: verify integrity, write the blob (atomic
// temp-file rename, synced), and flush the manifest entry through the
// batcher. It blocks until the entry is durable. Re-ingesting an
// already-resident address is an idempotent no-op returning created =
// false.
func (s *Store) Put(container []byte) (*Meta, bool, error) {
	info, err := verify(container)
	if err != nil {
		if s.opts.Hooks.OnReject != nil {
			s.opts.Hooks.OnReject()
		}
		return nil, false, err
	}
	sum := sha256.Sum256(container)
	return s.commit(contentID(sum, paramsTag(info)), container, sum, info, nil)
}

// verifyShard is the relaxed integrity gate for cluster shards: the
// container must describe, carry an intact index footer with clean
// framing, and every chunk must either checksum clean (an owned frame)
// or be a deliberate stub no longer than StubFrameMaxLen. Anything
// between — a non-stub frame that fails its checksum — is damage and is
// rejected exactly as Put would. Returns the sorted owned chunk set.
func verifyShard(shard []byte) (*sperr.StreamInfo, []int, error) {
	info, err := sperr.Describe(shard)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	rep, err := sperr.Audit(shard)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if !rep.IndexIntact || rep.Resynced {
		return nil, nil, fmt.Errorf("%w: shard index footer does not corroborate frames", ErrCorrupt)
	}
	owned := make([]int, 0, len(rep.Chunks))
	for i := range rep.Chunks {
		co := &rep.Chunks[i]
		switch {
		case co.Recovered:
			owned = append(owned, i)
		case co.Length <= sperr.StubFrameMaxLen:
			// Deliberate stub: present, checksummed, not decodable.
		default:
			return nil, nil, fmt.Errorf("%w: chunk %d damaged (%s)", ErrCorrupt, i, co.Reason)
		}
	}
	return info, owned, nil
}

// PutShard ingests a cluster shard under an explicit content address
// (the whole volume's address, computed by the coordinator via
// AddressOf). Verification accepts stub frames but still proves every
// owned frame intact; the manifest entry records the owned chunk set so
// region planning can tell local frames from remote ones. Re-ingesting
// a resident shard id merges frame-by-frame: the resident copy keeps
// its intact frames, gains any it was missing, and loses damaged ones
// to clean incoming replicas — so replicated re-ingest, anti-entropy
// repair, and rejoin convergence are all the same idempotent operation.
// A byte-identical re-ingest is a no-op.
func (s *Store) PutShard(id string, shard []byte) (*Meta, bool, error) {
	if len(id) != 64 || !isHex(id) {
		return nil, false, fmt.Errorf("%w: shard id must be a 64-char hex content address", ErrCorrupt)
	}
	info, owned, err := verifyShard(shard)
	if err != nil {
		if s.opts.Hooks.OnReject != nil {
			s.opts.Hooks.OnReject()
		}
		return nil, false, err
	}
	sum := sha256.Sum256(shard)
	return s.commit(id, shard, sum, info, owned)
}

// isHex reports whether s is lowercase-or-uppercase hex.
func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') && (c < 'A' || c > 'F') {
			return false
		}
	}
	return true
}

// commit is the shared tail of Put and PutShard: idempotence check, blob
// write, manifest flush. owned == nil marks a complete volume; non-nil
// (possibly empty) marks a shard with that owned chunk set.
func (s *Store) commit(id string, container []byte, sum [sha256.Size]byte, info *sperr.StreamInfo, owned []int) (*Meta, bool, error) {
	unlock := s.ids.lock(id)
	defer unlock()

	s.mu.RLock()
	existing, have := s.vols[id]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return nil, false, ErrClosed
	}
	if have {
		if owned != nil && existing.Owned != nil {
			return s.mergeShard(existing, container)
		}
		// Complete volumes are immutable by address, and a shard arriving
		// where the complete volume already lives adds nothing.
		if s.opts.Hooks.OnIngest != nil {
			s.opts.Hooks.OnIngest(existing.Bytes, false)
		}
		return existing, false, nil
	}

	if err := writeFileAtomic(s.blobPath(id), container); err != nil {
		return nil, false, err
	}

	meta := &Meta{
		ID:        id,
		SHA256:    hex.EncodeToString(sum[:]),
		Bytes:     int64(len(container)),
		Version:   info.Version,
		Mode:      info.Mode,
		Tolerance: info.Tolerance,
		Dims:      info.Dims,
		ChunkDims: info.ChunkDims,
		NumChunks: info.NumChunks,
		Chunks:    make([]ChunkGeom, len(info.Chunks)),
		Owned:     owned,
		Ingested:  time.Now().UTC(),
	}
	if owned != nil && meta.Owned == nil {
		meta.Owned = []int{} // keep "shard with zero chunks" distinct from "complete"
	}
	for i, c := range info.Chunks {
		meta.Chunks[i] = ChunkGeom{Origin: c.Origin, Dims: c.Dims}
	}
	if err := s.bat.submit(manifestOp{put: meta}); err != nil {
		return nil, false, err
	}
	if s.opts.Hooks.OnIngest != nil {
		s.opts.Hooks.OnIngest(meta.Bytes, true)
	}
	return meta, true, nil
}

// mergeShard folds an incoming (already verified) shard into the
// resident one under the same address: keep every intact resident
// frame, take incoming frames the resident copy is missing or holds
// damaged, rewrite the blob atomically, and refresh the manifest entry's
// owned set, size and digest. A resident blob that is lost or
// unparseable is replaced wholesale by the verified incoming shard —
// that is the scrubber's bit-rot recovery path. Runs under the per-id
// lock held by commit.
func (s *Store) mergeShard(existing *Meta, shard []byte) (*Meta, bool, error) {
	ingested := func(m *Meta) (*Meta, bool, error) {
		if s.opts.Hooks.OnIngest != nil {
			s.opts.Hooks.OnIngest(m.Bytes, false)
		}
		return m, false, nil
	}

	merged := shard
	cur, rerr := os.ReadFile(s.blobPath(existing.ID))
	if rerr == nil {
		if _, aerr := sperr.OwnedChunks(cur); aerr == nil {
			m, err := sperr.MergeShards(cur, shard)
			if err != nil {
				// Same address, irreconcilable geometry: refuse rather than
				// clobber what is already proven resident.
				return nil, false, fmt.Errorf("%w: %v", ErrCorrupt, err)
			}
			if bytes.Equal(m, cur) {
				return ingested(existing)
			}
			merged = m
		}
		// Unparseable resident blob: fall through and replace it with the
		// verified incoming shard.
	}

	mergedOwned, err := sperr.OwnedChunks(merged)
	if err != nil {
		return nil, false, fmt.Errorf("%w: merged shard: %v", ErrCorrupt, err)
	}
	if err := writeFileAtomic(s.blobPath(existing.ID), merged); err != nil {
		return nil, false, err
	}
	sum := sha256.Sum256(merged)
	meta := *existing
	meta.SHA256 = hex.EncodeToString(sum[:])
	meta.Bytes = int64(len(merged))
	meta.Owned = mergedOwned
	if err := s.bat.submit(manifestOp{put: &meta}); err != nil {
		return nil, false, err
	}
	// Drop any cached slabs decoded from frames the merge replaced.
	s.cache.Invalidate(meta.ID)
	return ingested(&meta)
}

// Get returns a volume's manifest entry and its container bytes.
func (s *Store) Get(id string) (*Meta, []byte, error) {
	meta, ok := s.Describe(id)
	if !ok {
		return nil, nil, ErrNotFound
	}
	b, err := os.ReadFile(s.blobPath(id))
	if err != nil {
		return nil, nil, fmt.Errorf("store: blob for %s: %w", shortID(id), err)
	}
	return meta, b, nil
}

// Describe returns a volume's manifest entry without touching disk.
func (s *Store) Describe(id string) (*Meta, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	m, ok := s.vols[id]
	return m, ok
}

// List returns every resident volume's entry, sorted by id.
func (s *Store) List() []*Meta {
	s.mu.RLock()
	out := make([]*Meta, 0, len(s.vols))
	for _, m := range s.vols {
		out = append(out, m)
	}
	s.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Delete removes a volume: the manifest entry is flushed out first (so
// the manifest never references a missing blob), then the blob file goes,
// then the volume's cached slabs are invalidated.
func (s *Store) Delete(id string) error {
	unlock := s.ids.lock(id)
	defer unlock()

	s.mu.RLock()
	_, ok := s.vols[id]
	closed := s.closed
	s.mu.RUnlock()
	if closed {
		return ErrClosed
	}
	if !ok {
		return ErrNotFound
	}
	if err := s.bat.submit(manifestOp{del: id}); err != nil {
		return err
	}
	if err := os.Remove(s.blobPath(id)); err != nil && !os.IsNotExist(err) {
		return err
	}
	s.cache.Invalidate(id)
	if s.opts.Hooks.OnDelete != nil {
		s.opts.Hooks.OnDelete()
	}
	return nil
}

// applyBatch is the batcher's flush: fold the batch into a copy of the
// volume map, atomically rewrite the manifest, and only then commit the
// copy — a failed write leaves both memory and disk at the previous
// consistent state.
func (s *Store) applyBatch(ops []manifestOp) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	next := make(map[string]*Meta, len(s.vols)+len(ops))
	for k, v := range s.vols {
		next[k] = v
	}
	for _, op := range ops {
		if op.put != nil {
			next[op.put.ID] = op.put
		} else if op.del != "" {
			delete(next, op.del)
		}
	}
	if err := s.writeManifest(next); err != nil {
		return err
	}
	s.vols = next
	return nil
}

// writeManifest serializes vols (sorted, indented, deterministic) and
// renames it into place.
func (s *Store) writeManifest(vols map[string]*Meta) error {
	mf := manifestFile{Version: 1, Volumes: make([]*Meta, 0, len(vols))}
	for _, m := range vols {
		mf.Volumes = append(mf.Volumes, m)
	}
	sort.Slice(mf.Volumes, func(i, j int) bool { return mf.Volumes[i].ID < mf.Volumes[j].ID })
	raw, err := json.MarshalIndent(&mf, "", "  ")
	if err != nil {
		return err
	}
	return writeFileAtomic(filepath.Join(s.dir, manifestName), append(raw, '\n'))
}

// writeFileAtomic writes via a synced temp file plus rename, so a crash
// leaves either the old content or the new — never a torn file.
func writeFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if _, err := f.Write(data); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// Close flushes pending manifest ops, stops the batcher, and releases
// every cached slab's budget charge. Further mutations fail with
// ErrClosed.
func (s *Store) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	s.mu.Unlock()
	s.bat.close()
	s.cache.Purge()
	return nil
}

// AuditReport is the outcome of a disk audit: the manifest cross-checked
// against the volumes directory.
type AuditReport struct {
	// Volumes is the number of manifest entries checked.
	Volumes int
	// Orphans are blob files with no manifest entry (a crashed ingest's
	// debris — harmless, but reported).
	Orphans []string
	// Missing are manifest entries whose blob file is gone.
	Missing []string
	// Corrupt are entries whose blob exists but no longer matches the
	// recorded size or SHA-256.
	Corrupt []string
	// Drift are ids where the in-memory view and the on-disk manifest
	// disagree (present in exactly one of the two).
	Drift []string
}

// Clean reports a fully consistent store: no missing or corrupt entries,
// no drift, no orphans.
func (r *AuditReport) Clean() bool {
	return len(r.Orphans) == 0 && len(r.Missing) == 0 && len(r.Corrupt) == 0 && len(r.Drift) == 0
}

// AuditDisk cross-checks the manifest against the volumes directory:
// every entry's blob must exist with the recorded size and SHA-256, every
// blob must have an entry, and the on-disk manifest must agree with the
// in-memory view.
func (s *Store) AuditDisk() (*AuditReport, error) {
	s.mu.RLock()
	snap := make(map[string]*Meta, len(s.vols))
	for k, v := range s.vols {
		snap[k] = v
	}
	s.mu.RUnlock()

	rep := &AuditReport{Volumes: len(snap)}

	ents, err := os.ReadDir(filepath.Join(s.dir, volumesDir))
	if err != nil {
		return nil, err
	}
	onDisk := make(map[string]bool, len(ents))
	for _, e := range ents {
		name := e.Name()
		if !strings.HasSuffix(name, blobExt) {
			continue // ingest temp files are not blobs
		}
		id := strings.TrimSuffix(name, blobExt)
		onDisk[id] = true
		if _, ok := snap[id]; !ok {
			rep.Orphans = append(rep.Orphans, id)
		}
	}
	for id, m := range snap {
		if !onDisk[id] {
			rep.Missing = append(rep.Missing, id)
			continue
		}
		b, err := os.ReadFile(s.blobPath(id))
		if err != nil {
			rep.Missing = append(rep.Missing, id)
			continue
		}
		sum := sha256.Sum256(b)
		if int64(len(b)) != m.Bytes || hex.EncodeToString(sum[:]) != m.SHA256 {
			rep.Corrupt = append(rep.Corrupt, id)
		}
	}

	// Manifest file vs in-memory view.
	fileIDs := make(map[string]bool)
	if raw, err := os.ReadFile(filepath.Join(s.dir, manifestName)); err == nil {
		var mf manifestFile
		if err := json.Unmarshal(raw, &mf); err != nil {
			return nil, fmt.Errorf("store: manifest unreadable: %w", err)
		}
		for _, m := range mf.Volumes {
			fileIDs[m.ID] = true
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	for id := range snap {
		if !fileIDs[id] {
			rep.Drift = append(rep.Drift, id)
		}
	}
	for id := range fileIDs {
		if _, ok := snap[id]; !ok {
			rep.Drift = append(rep.Drift, id)
		}
	}

	sort.Strings(rep.Orphans)
	sort.Strings(rep.Missing)
	sort.Strings(rep.Corrupt)
	sort.Strings(rep.Drift)
	return rep, nil
}

// shortID abbreviates a content address for error messages.
func shortID(id string) string {
	if len(id) > 12 {
		return id[:12]
	}
	return id
}

// keyedMutex is a per-key lock with refcounted entries (the key space is
// unbounded; idle keys must not leak).
type keyedMutex struct {
	mu sync.Mutex
	m  map[string]*keyedLock
}

type keyedLock struct {
	mu   sync.Mutex
	refs int
}

func (k *keyedMutex) lock(key string) (unlock func()) {
	k.mu.Lock()
	if k.m == nil {
		k.m = make(map[string]*keyedLock)
	}
	l, ok := k.m[key]
	if !ok {
		l = &keyedLock{}
		k.m[key] = l
	}
	l.refs++
	k.mu.Unlock()

	l.mu.Lock()
	return func() {
		l.mu.Unlock()
		k.mu.Lock()
		l.refs--
		if l.refs == 0 {
			delete(k.m, key)
		}
		k.mu.Unlock()
	}
}
