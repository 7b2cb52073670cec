// Package cvmfs simulates the CernVM File System substrate the paper's
// prototype targets: a content-addressed object store publishing
// per-package file catalogs.
//
// Substitution note (see DESIGN.md §3): the paper reads the real,
// multi-terabyte SFT repository over CVMFS. Here the same interfaces
// are backed by synthetic catalogs derived deterministically from the
// package graph: each package's installed size is split across its
// FileCount files, and a fraction of a version's files are carried over
// unchanged from the previous version of its family, so content-level
// deduplication across versions behaves like a real append-only CVMFS
// repository. Higher layers (Shrinkwrap, the image store) exercise the
// same lookup → fetch → write code path they would against the real
// thing.
package cvmfs

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"sync"

	"repro/internal/pkggraph"
)

// Digest is the content address of a stored object (SHA-256).
type Digest [32]byte

// String returns the hex form of the digest, shortened to 16 chars for
// readability in logs.
func (d Digest) String() string { return fmt.Sprintf("%x", d[:8]) }

// FileEntry describes one file within a package catalog.
type FileEntry struct {
	Path   string
	Size   int64
	Digest Digest
}

// Catalog lists the files belonging to one published package, in path
// order. It corresponds to a CVMFS nested catalog.
type Catalog struct {
	Pkg   pkggraph.PkgID
	Files []FileEntry
}

// LogicalSize returns the sum of the catalog's file sizes (equals the
// package's installed size).
func (c *Catalog) LogicalSize() int64 {
	var n int64
	for i := range c.Files {
		n += c.Files[i].Size
	}
	return n
}

// carryOverFraction is the fraction of a version's files inherited
// bit-identically from the previous version of its family, calibrated
// to the strong cross-version duplication the paper reports in CVMFS
// container repositories.
const carryOverFraction = 0.4

// Store is a simulated CVMFS repository: published package catalogs
// plus a content-addressed object index. Publishing is lazy and
// idempotent; a Store is safe for concurrent use.
type Store struct {
	repo *pkggraph.Repo

	mu       sync.RWMutex
	catalogs map[pkggraph.PkgID]*Catalog
	objects  map[Digest]int64 // digest -> object size
	logical  int64            // sum of published file sizes (with duplicates)
	unique   int64            // sum of distinct object sizes
}

// NewStore creates an empty store over repo.
func NewStore(repo *pkggraph.Repo) *Store {
	return &Store{
		repo:     repo,
		catalogs: make(map[pkggraph.PkgID]*Catalog),
		objects:  make(map[Digest]int64),
	}
}

// Repo returns the package graph the store publishes from.
func (s *Store) Repo() *pkggraph.Repo { return s.repo }

// fileDigest derives the content address of file index i of a package,
// where originVersion identifies which version of the family the
// content was first introduced in. Files carried over across versions
// share an origin and therefore a digest.
func fileDigest(family string, originVersion, i int, size int64) Digest {
	var buf [16]byte
	binary.LittleEndian.PutUint32(buf[0:], uint32(originVersion))
	binary.LittleEndian.PutUint32(buf[4:], uint32(i))
	binary.LittleEndian.PutUint64(buf[8:], uint64(size))
	h := sha256.New()
	h.Write([]byte(family))
	h.Write(buf[:])
	var d Digest
	h.Sum(d[:0])
	return d
}

// fileLayout is the deterministic per-file plan of a package: sizes and
// the version each file's content originated in. Files carried over
// from the previous family version keep that version's size and origin,
// so their digests — and therefore their stored objects — are shared.
type fileLayout struct {
	sizes   []int64
	origins []int
}

// layoutFor computes the file layout of a package, recursing into
// earlier versions of its family for carried-over files. Recursion
// depth is bounded by the family's version count.
func (s *Store) layoutFor(id pkggraph.PkgID) fileLayout {
	p := s.repo.Package(id)
	n := p.FileCount
	if n < 1 {
		n = 1
	}
	verIdx := 0
	versions := s.repo.FamilyVersions(p.Name)
	for i, v := range versions {
		if v == id {
			verIdx = i
			break
		}
	}
	lay := fileLayout{sizes: make([]int64, n), origins: make([]int, n)}
	carried := 0
	var carriedSum int64
	if verIdx > 0 {
		prev := s.layoutFor(versions[verIdx-1])
		carried = int(float64(n) * carryOverFraction)
		if carried > len(prev.sizes) {
			carried = len(prev.sizes)
		}
		// Shrink the carry-over if the inherited bytes would exceed
		// this version's total size.
		for carried > 0 {
			carriedSum = 0
			for i := 0; i < carried; i++ {
				carriedSum += prev.sizes[i]
			}
			if carriedSum <= p.Size {
				break
			}
			carried--
		}
		if carried == 0 {
			carriedSum = 0
		}
		for i := 0; i < carried; i++ {
			lay.sizes[i] = prev.sizes[i]
			lay.origins[i] = prev.origins[i]
		}
	}
	// Split the remaining bytes across the new files with a
	// deterministic xorshift weight stream seeded by the package ID.
	fresh := n - carried
	remaining := p.Size - carriedSum
	if fresh > 0 {
		weights := make([]uint32, fresh)
		var wsum uint64
		x := uint64(id)*0x9e3779b97f4a7c15 + 0x1234567
		for i := range weights {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			w := uint32(x%1000) + 1
			weights[i] = w
			wsum += uint64(w)
		}
		var used int64
		for i := 0; i < fresh; i++ {
			var size int64
			if i == fresh-1 {
				size = remaining - used
			} else {
				size = int64(uint64(remaining) * uint64(weights[i]) / wsum)
			}
			if size < 0 {
				size = 0
			}
			used += size
			lay.sizes[carried+i] = size
			lay.origins[carried+i] = verIdx
		}
	}
	return lay
}

// synthesize builds the catalog for a package from its file layout.
func (s *Store) synthesize(id pkggraph.PkgID) *Catalog {
	p := s.repo.Package(id)
	lay := s.layoutFor(id)
	cat := &Catalog{Pkg: id, Files: make([]FileEntry, 0, len(lay.sizes))}
	for i, size := range lay.sizes {
		cat.Files = append(cat.Files, FileEntry{
			Path:   fmt.Sprintf("/cvmfs/sft.cern.ch/%s/%s/%s/f%06d", p.Name, p.Version, p.Platform, i),
			Size:   size,
			Digest: fileDigest(p.Name, lay.origins[i], i, size),
		})
	}
	return cat
}

// Publish makes the package's catalog and objects available. It is
// idempotent and also publishes nothing else (dependencies are the
// caller's concern, as with real CVMFS where each package's content is
// simply present in the namespace).
func (s *Store) Publish(id pkggraph.PkgID) *Catalog {
	s.mu.RLock()
	if c, ok := s.catalogs[id]; ok {
		s.mu.RUnlock()
		return c
	}
	s.mu.RUnlock()
	cat := s.synthesize(id)
	s.mu.Lock()
	defer s.mu.Unlock()
	if c, ok := s.catalogs[id]; ok { // lost the race; use the winner
		return c
	}
	s.catalogs[id] = cat
	for i := range cat.Files {
		f := &cat.Files[i]
		s.logical += f.Size
		if _, dup := s.objects[f.Digest]; !dup {
			s.objects[f.Digest] = f.Size
			s.unique += f.Size
		}
	}
	return cat
}

// Catalog returns the catalog for a published package, or false if the
// package has not been published.
func (s *Store) Catalog(id pkggraph.PkgID) (*Catalog, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	c, ok := s.catalogs[id]
	return c, ok
}

// Stats summarizes the store's deduplication state.
type Stats struct {
	Packages     int
	Objects      int
	LogicalBytes int64 // with cross-version duplicates
	UniqueBytes  int64 // content-addressed
}

// DedupRatio is LogicalBytes / UniqueBytes (1.0 = no duplication).
func (st Stats) DedupRatio() float64 {
	if st.UniqueBytes == 0 {
		return 1
	}
	return float64(st.LogicalBytes) / float64(st.UniqueBytes)
}

// Stats returns a snapshot of the store's statistics.
func (s *Store) Stats() Stats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return Stats{
		Packages:     len(s.catalogs),
		Objects:      len(s.objects),
		LogicalBytes: s.logical,
		UniqueBytes:  s.unique,
	}
}
