package pkggraph

import (
	"fmt"
	"math"
	"math/rand"
)

// GenConfig controls the synthetic repository generator. The defaults
// (DefaultGenConfig) are calibrated to the SFT CVMFS repository the
// paper characterizes: 9,660 packages in a hierarchical dependency tree
// where a handful of core components are transitive dependencies of
// nearly everything, and a uniform random selection of up to 100
// packages closes to roughly 5x as many packages (Figure 3).
type GenConfig struct {
	// Family counts per tier. Each family expands into
	// VersionsPerFamily distinct packages.
	CoreFamilies        int
	FrameworkFamilies   int
	LibraryFamilies     int
	ApplicationFamilies int
	VersionsPerFamily   int

	// Platform is the platform/configuration string attached to every
	// generated package key.
	Platform string

	// Size distribution: package sizes are log-normal with the given
	// median and sigma (of the underlying normal). Core packages are
	// scaled by CoreSizeFactor to model base frameworks, toolchains and
	// calibration data.
	MedianPkgBytes int64
	SizeSigma      float64
	CoreSizeFactor float64

	// MeanFileBytes controls how many synthetic files a package is
	// considered to contain (used by the CVMFS substrate).
	MeanFileBytes int64

	// ZipfS is the skew of the popularity distribution used when
	// choosing which families a package depends on. Larger values
	// concentrate dependencies on fewer, more popular families,
	// producing the "compact distribution of common packages" the paper
	// identifies as the property its merging strategy exploits.
	ZipfS float64

	// Dependency fan-out ranges [min,max] per tier, counted in
	// families.
	FrameworkCoreDeps [2]int
	LibraryFwDeps     [2]int
	LibraryLibDeps    [2]int
	AppLibDeps        [2]int
	AppFwDeps         [2]int
}

// DefaultGenConfig returns the SFT-calibrated configuration:
// (15+150+750+1500) families x 4 versions = 9,660 packages, total size
// ~0.4 TB.
func DefaultGenConfig() GenConfig {
	return GenConfig{
		CoreFamilies:        15,
		FrameworkFamilies:   150,
		LibraryFamilies:     750,
		ApplicationFamilies: 1500,
		VersionsPerFamily:   4,
		Platform:            "x86_64-centos7-gcc8-opt",
		MedianPkgBytes:      12 << 20, // 12 MB
		SizeSigma:           1.6,
		CoreSizeFactor:      15,
		MeanFileBytes:       128 << 10, // 128 KB
		ZipfS:               1.1,
		FrameworkCoreDeps:   [2]int{2, 4},
		LibraryFwDeps:       [2]int{1, 3},
		LibraryLibDeps:      [2]int{0, 3},
		AppLibDeps:          [2]int{2, 5},
		AppFwDeps:           [2]int{0, 1},
	}
}

// TotalPackages returns the number of packages the configuration will
// generate.
func (c GenConfig) TotalPackages() int {
	return (c.CoreFamilies + c.FrameworkFamilies + c.LibraryFamilies + c.ApplicationFamilies) * c.VersionsPerFamily
}

func (c GenConfig) validate() error {
	if c.VersionsPerFamily < 1 {
		return fmt.Errorf("pkggraph: VersionsPerFamily must be >= 1, got %d", c.VersionsPerFamily)
	}
	if c.CoreFamilies < 1 {
		return fmt.Errorf("pkggraph: need at least one core family")
	}
	if c.MedianPkgBytes <= 0 {
		return fmt.Errorf("pkggraph: MedianPkgBytes must be positive")
	}
	if c.SizeSigma < 0 {
		return fmt.Errorf("pkggraph: SizeSigma must be non-negative")
	}
	for _, rng := range [][2]int{c.FrameworkCoreDeps, c.LibraryFwDeps, c.LibraryLibDeps, c.AppLibDeps, c.AppFwDeps} {
		if rng[0] < 0 || rng[1] < rng[0] {
			return fmt.Errorf("pkggraph: invalid dependency range %v", rng)
		}
	}
	return nil
}

// family is a generator-internal handle: a named family and the IDs of
// its version packages (oldest first).
type family struct {
	name     string
	versions []PkgID
}

// zipfSampler draws family indices with probability proportional to
// 1/(rank+1)^s, so low indices (popular families) dominate.
type zipfSampler struct {
	cum []float64 // cumulative weights
}

func newZipfSampler(n int, s float64) *zipfSampler {
	cum := make([]float64, n)
	total := 0.0
	for i := 0; i < n; i++ {
		total += 1 / math.Pow(float64(i+1), s)
		cum[i] = total
	}
	return &zipfSampler{cum: cum}
}

// sample returns an index in [0, n).
func (z *zipfSampler) sample(r *rand.Rand) int {
	if len(z.cum) == 0 {
		return 0
	}
	return z.sampleBelow(r, len(z.cum))
}

// sampleBelow returns an index in [0, limit), used for intra-tier
// dependencies that must point at earlier families to stay acyclic.
func (z *zipfSampler) sampleBelow(r *rand.Rand, limit int) int {
	if limit <= 0 {
		return -1
	}
	x := r.Float64() * z.cum[limit-1]
	lo, hi := 0, limit-1
	for lo < hi {
		mid := (lo + hi) / 2
		if z.cum[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// pickVersion chooses a version package from a family, skewed toward
// the newest version (60/25/10/5 across the newest four), mirroring how
// most jobs track recent releases while some pin old ones.
func pickVersion(r *rand.Rand, fam family) PkgID {
	n := len(fam.versions)
	if n == 1 {
		return fam.versions[0]
	}
	x := r.Float64()
	var back int
	switch {
	case x < 0.60:
		back = 0
	case x < 0.85:
		back = 1
	case x < 0.95:
		back = 2
	default:
		back = 3
	}
	if back >= n {
		back = n - 1
	}
	return fam.versions[n-1-back]
}

// Generate builds a synthetic repository per cfg using a deterministic
// PRNG seeded with seed. The same (cfg, seed) always yields the same
// repository.
func Generate(cfg GenConfig, seed int64) (*Repo, error) {
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(seed))
	total := cfg.TotalPackages()
	pkgs := make([]Package, 0, total)

	logMedian := math.Log(float64(cfg.MedianPkgBytes))
	sizeFor := func(tier Tier) int64 {
		v := math.Exp(logMedian + r.NormFloat64()*cfg.SizeSigma)
		if tier == TierCore {
			v *= cfg.CoreSizeFactor
		}
		if v < 4096 {
			v = 4096
		}
		return int64(v)
	}
	filesFor := func(size int64) int {
		if cfg.MeanFileBytes <= 0 {
			return 1
		}
		n := int(float64(size)/float64(cfg.MeanFileBytes)*(0.5+r.Float64())) + 1
		if n > 200000 {
			n = 200000
		}
		return n
	}

	addFamily := func(tier Tier, name string, deps func(version int) []PkgID) family {
		fam := family{name: name}
		for v := 0; v < cfg.VersionsPerFamily; v++ {
			id := PkgID(len(pkgs))
			size := sizeFor(tier)
			pkgs = append(pkgs, Package{
				ID:        id,
				Name:      name,
				Version:   fmt.Sprintf("%d.%d.0", v+1, r.Intn(10)),
				Platform:  cfg.Platform,
				Tier:      tier,
				Size:      size,
				FileCount: filesFor(size),
				Deps:      deps(v),
			})
			fam.versions = append(fam.versions, id)
		}
		return fam
	}

	intn := func(lo, hi int) int {
		if hi <= lo {
			return lo
		}
		return lo + r.Intn(hi-lo+1)
	}

	// Tier 0: core families with no dependencies.
	coreFams := make([]family, 0, cfg.CoreFamilies)
	for i := 0; i < cfg.CoreFamilies; i++ {
		coreFams = append(coreFams, addFamily(TierCore, fmt.Sprintf("core-%03d", i),
			func(int) []PkgID { return nil }))
	}
	coreZipf := newZipfSampler(len(coreFams), cfg.ZipfS)

	// depPick draws distinct families from a tier via the Zipf sampler
	// and resolves each to a version package.
	depPick := func(fams []family, z *zipfSampler, count, limit int) []PkgID {
		if count <= 0 || len(fams) == 0 {
			return nil
		}
		chosen := make(map[int]struct{}, count)
		out := make([]PkgID, 0, count)
		for attempts := 0; len(out) < count && attempts < count*8; attempts++ {
			var idx int
			if limit > 0 {
				idx = z.sampleBelow(r, limit)
				if idx < 0 {
					break
				}
			} else {
				idx = z.sample(r)
			}
			if _, dup := chosen[idx]; dup {
				continue
			}
			chosen[idx] = struct{}{}
			out = append(out, pickVersion(r, fams[idx]))
		}
		return out
	}

	// Tier 1: frameworks depend on core families.
	fwFams := make([]family, 0, cfg.FrameworkFamilies)
	for i := 0; i < cfg.FrameworkFamilies; i++ {
		fwFams = append(fwFams, addFamily(TierFramework, fmt.Sprintf("framework-%03d", i),
			func(int) []PkgID {
				return depPick(coreFams, coreZipf, intn(cfg.FrameworkCoreDeps[0], cfg.FrameworkCoreDeps[1]), 0)
			}))
	}
	fwZipf := newZipfSampler(len(fwFams), cfg.ZipfS)

	// Tier 2: libraries depend on frameworks and earlier libraries.
	libFams := make([]family, 0, cfg.LibraryFamilies)
	libZipf := newZipfSampler(cfg.LibraryFamilies, cfg.ZipfS)
	for i := 0; i < cfg.LibraryFamilies; i++ {
		idx := i
		libFams = append(libFams, addFamily(TierLibrary, fmt.Sprintf("library-%04d", i),
			func(int) []PkgID {
				deps := depPick(fwFams, fwZipf, intn(cfg.LibraryFwDeps[0], cfg.LibraryFwDeps[1]), 0)
				deps = append(deps, depPick(libFams, libZipf, intn(cfg.LibraryLibDeps[0], cfg.LibraryLibDeps[1]), idx)...)
				return deps
			}))
	}

	// Tier 3: applications depend on libraries (and sometimes a
	// framework directly).
	for i := 0; i < cfg.ApplicationFamilies; i++ {
		addFamily(TierApplication, fmt.Sprintf("app-%04d", i),
			func(int) []PkgID {
				deps := depPick(libFams, libZipf, intn(cfg.AppLibDeps[0], cfg.AppLibDeps[1]), 0)
				deps = append(deps, depPick(fwFams, fwZipf, intn(cfg.AppFwDeps[0], cfg.AppFwDeps[1]), 0)...)
				return deps
			})
	}

	return New(pkgs)
}

// MustGenerate is Generate that panics on error; convenient for
// examples, benchmarks and tests where the config is known-valid.
func MustGenerate(cfg GenConfig, seed int64) *Repo {
	r, err := Generate(cfg, seed)
	if err != nil {
		panic(err)
	}
	return r
}
