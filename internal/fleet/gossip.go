package fleet

import "sort"

// Delta-sync gossip encoding.
//
// Each agent's image *directory* — which (image, version) pairs it
// holds, and their package sets — must reach the master without
// retransmitting the whole table on every heartbeat. Directory/Follower
// are the two ends of that stream: a revisioned directory on the agent
// emits DirDelta frames relative to the last revision the master
// acknowledged; the master's follower applies them, detecting
// duplicated, reordered, and lost frames. The encoding is plain JSON-tagged structs, so it travels in
// the heartbeat body unchanged.
//
// The protocol is pull-ack, not reliable-stream: every frame carries
// the revision interval (From, To] it covers. A frame whose To is not
// ahead of the follower is a duplicate or a reordering and is dropped;
// a frame whose From is ahead of the follower means frames were lost
// and the follower asks for a full resync. Convergence therefore
// survives a lossy, reordering transport — the property the
// out-of-order gossip test pins down.

// DirEntry is one image copy in a node's image directory.
type DirEntry struct {
	ID      uint64 `json:"id"`
	Version uint64 `json:"version"`
	Size    int64  `json:"size"`
	// Packages is the image's sorted package-key set, letting the
	// master route a request toward a node already holding a superset
	// without a round trip.
	Packages []string `json:"packages,omitempty"`
}

// Equal reports whether two entries describe the same image copy,
// including the package set.
func (e DirEntry) Equal(o DirEntry) bool {
	if e.ID != o.ID || e.Version != o.Version || e.Size != o.Size || len(e.Packages) != len(o.Packages) {
		return false
	}
	for i := range e.Packages {
		if e.Packages[i] != o.Packages[i] {
			return false
		}
	}
	return true
}

// DirDelta is one gossip frame: the directory changes that move a
// follower from revision From to revision To. A Full frame carries the
// whole directory (Upserts only) and applies to any follower behind To
// — it is the resync path after loss or leader reset.
type DirDelta struct {
	From    uint64     `json:"from"`
	To      uint64     `json:"to"`
	Full    bool       `json:"full,omitempty"`
	Upserts []DirEntry `json:"upserts,omitempty"`
	Removes []uint64   `json:"removes,omitempty"`
}

// Empty reports whether the frame carries no change.
func (d DirDelta) Empty() bool {
	return !d.Full && len(d.Upserts) == 0 && len(d.Removes) == 0
}

// dirChange is one journaled mutation on the leader side.
type dirChange struct {
	rev    uint64
	entry  DirEntry
	remove bool
}

// Directory is the leader side of the gossip stream: a revisioned
// image directory with a bounded change journal. Every effective Put
// or Remove bumps the revision; DeltaSince replays the journal into a
// minimal coalesced frame, falling back to a Full frame when the
// requested revision has aged out of the journal.
//
// Directory is not goroutine-safe; the fleet agent drives it from its
// single heartbeat loop.
type Directory struct {
	rev        uint64
	entries    map[uint64]DirEntry
	journal    []dirChange
	journalCap int
}

// DefaultDirJournal is the default journal bound: enough to absorb
// many heartbeats' worth of churn before a resync is forced.
const DefaultDirJournal = 1024

// NewDirectory creates an empty directory whose journal keeps up to
// journalCap changes (<= 0 takes DefaultDirJournal).
func NewDirectory(journalCap int) *Directory {
	if journalCap <= 0 {
		journalCap = DefaultDirJournal
	}
	return &Directory{entries: make(map[uint64]DirEntry), journalCap: journalCap}
}

// Rev returns the current revision (0 = empty, never mutated).
func (d *Directory) Rev() uint64 { return d.rev }

// Len returns the number of directory entries.
func (d *Directory) Len() int { return len(d.entries) }

// Put records that the node holds e, bumping the revision only when
// the entry actually changed — heartbeats that rebuild the directory
// from the live cache every tick must not inflate revisions.
func (d *Directory) Put(e DirEntry) {
	if cur, ok := d.entries[e.ID]; ok && cur.Equal(e) {
		return
	}
	d.entries[e.ID] = e
	d.log(dirChange{entry: e})
}

// Remove records that the node dropped image id (no-op when absent).
func (d *Directory) Remove(id uint64) {
	if _, ok := d.entries[id]; !ok {
		return
	}
	delete(d.entries, id)
	d.log(dirChange{entry: DirEntry{ID: id}, remove: true})
}

func (d *Directory) log(c dirChange) {
	d.rev++
	c.rev = d.rev
	d.journal = append(d.journal, c)
	if len(d.journal) > d.journalCap {
		d.journal = d.journal[len(d.journal)-d.journalCap:]
	}
}

// Full returns a resync frame carrying the whole directory.
func (d *Directory) Full() DirDelta {
	out := DirDelta{To: d.rev, Full: true}
	out.Upserts = d.sortedEntries()
	return out
}

// DeltaSince returns the frame that moves a follower at revision rev
// to the directory's current state: an incremental frame when the
// journal still covers (rev, d.rev], a Full frame otherwise. A
// follower already current gets an empty frame.
func (d *Directory) DeltaSince(rev uint64) DirDelta {
	if rev == d.rev {
		return DirDelta{From: rev, To: rev}
	}
	if rev > d.rev || !d.journalCovers(rev) {
		return d.Full()
	}
	// Coalesce: the last journaled change per image wins.
	final := make(map[uint64]dirChange)
	for _, c := range d.journal {
		if c.rev > rev {
			final[c.entry.ID] = c
		}
	}
	out := DirDelta{From: rev, To: d.rev}
	ids := make([]uint64, 0, len(final))
	for id := range final {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		c := final[id]
		if c.remove {
			out.Removes = append(out.Removes, id)
		} else {
			out.Upserts = append(out.Upserts, c.entry)
		}
	}
	return out
}

// journalCovers reports whether every change after rev is still
// journaled.
func (d *Directory) journalCovers(rev uint64) bool {
	if len(d.journal) == 0 {
		return rev == d.rev
	}
	return d.journal[0].rev <= rev+1
}

func (d *Directory) sortedEntries() []DirEntry {
	out := make([]DirEntry, 0, len(d.entries))
	for _, e := range d.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ApplyResult classifies a follower's handling of one frame.
type ApplyResult int

const (
	// DeltaApplied: the frame advanced the follower.
	DeltaApplied ApplyResult = iota
	// DeltaStale: duplicate or reordered-old frame; dropped, follower
	// unchanged. Not an error — lossy transports produce these.
	DeltaStale
	// DeltaGap: frames were lost; the follower needs a Full resync and
	// did not change.
	DeltaGap
)

// String renders the result for diagnostics.
func (r ApplyResult) String() string {
	switch r {
	case DeltaStale:
		return "stale"
	case DeltaGap:
		return "gap"
	default:
		return "applied"
	}
}

// Follower mirrors a Directory from a stream of DirDelta frames that
// may arrive duplicated or out of order, and indexes the mirror for the
// routing question "does this agent hold a superset of these keys?"
// (dirindex.go): one bitset per mirrored image over the master-wide
// KeyDict, maintained wherever the mirror changes — Apply and Reset —
// so a routed request never builds anything. Not goroutine-safe; the
// master applies frames under its membership lock.
type Follower struct {
	rev     uint64
	entries map[uint64]DirEntry
	dict    *KeyDict
	index   map[uint64]imageBits
}

// NewFollower creates an empty follower at revision 0 whose index is
// expressed over dict. Followers that answer the same KeyDict.Route must
// share one dictionary.
func NewFollower(dict *KeyDict) *Follower {
	return &Follower{
		entries: make(map[uint64]DirEntry),
		dict:    dict,
		index:   make(map[uint64]imageBits),
	}
}

// Rev returns the last applied revision — the ack the leader's next
// DeltaSince should use.
func (f *Follower) Rev() uint64 { return f.rev }

// Len returns the number of mirrored entries.
func (f *Follower) Len() int { return len(f.entries) }

// Entries returns a copy of the mirrored directory sorted by image ID.
// It is for handoff planning and tests; routing reads the index
// (HoldsSuperset) instead.
func (f *Follower) Entries() []DirEntry {
	out := make([]DirEntry, 0, len(f.entries))
	for _, e := range f.entries {
		out = append(out, e)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Reset drops all mirrored state (the leader restarted under a new
// generation; its revisions no longer relate to ours).
func (f *Follower) Reset() {
	f.rev = 0
	f.entries = make(map[uint64]DirEntry)
	f.index = make(map[uint64]imageBits)
}

// Apply incorporates one frame. Duplicated and reordered-old frames
// are dropped (DeltaStale); a frame from beyond the follower's
// revision reports DeltaGap so the caller can request a Full resync.
func (f *Follower) Apply(d DirDelta) ApplyResult {
	if d.Full {
		if d.To <= f.rev {
			return DeltaStale
		}
		f.entries = make(map[uint64]DirEntry, len(d.Upserts))
		f.index = make(map[uint64]imageBits, len(d.Upserts))
		for _, e := range d.Upserts {
			f.upsert(e)
		}
		f.rev = d.To
		return DeltaApplied
	}
	if d.To <= f.rev {
		return DeltaStale
	}
	if d.From != f.rev {
		return DeltaGap
	}
	for _, e := range d.Upserts {
		f.upsert(e)
	}
	for _, id := range d.Removes {
		delete(f.entries, id)
		if !mutantEnabled("staleindex") {
			delete(f.index, id)
		}
	}
	f.rev = d.To
	return DeltaApplied
}

// upsert mirrors e and (re)indexes its package set. The mirror keeps
// the dictionary's strings, not e's, which may be views into a frame.
func (f *Follower) upsert(e DirEntry) {
	var interned []string
	if e.Packages != nil {
		interned = make([]string, len(e.Packages))
	}
	f.index[e.ID] = f.dict.bitsOf(e.Packages, interned)
	e.Packages = interned
	f.entries[e.ID] = e
}
