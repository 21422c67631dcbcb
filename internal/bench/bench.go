// Package bench regenerates every table and figure of the paper's
// evaluation (§5). Each experiment returns a Table whose rows mirror what
// the paper plots — same workloads, same parameter sweeps, same reported
// quantity — with times and bandwidths coming from the virtual-time model
// over real executions of the library (DESIGN.md §4 lists the mapping).
package bench

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"repro/internal/datagen"
	"repro/internal/geom"
	"repro/internal/mpi"
	"repro/internal/pfs"
)

// Table is one regenerated experiment artifact.
type Table struct {
	ID     string
	Title  string
	Header []string
	Rows   [][]string
	Notes  string
}

// Print renders the table with aligned columns.
func (t *Table) Print(w io.Writer) {
	fmt.Fprintf(w, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, cell := range cells {
			parts[i] = fmt.Sprintf("%-*s", widths[min(i, len(widths)-1)], cell)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	for _, row := range t.Rows {
		line(row)
	}
	if t.Notes != "" {
		fmt.Fprintf(w, "-- %s\n", t.Notes)
	}
	fmt.Fprintln(w)
}

// Config tunes an experiment run.
type Config struct {
	// ScaleMul multiplies every dataset's default scale factor (bigger =
	// smaller real files = faster runs). Zero means 1.
	ScaleMul float64
	// Quick shrinks parameter sweeps for use under `go test`.
	Quick bool
}

func (c Config) scale(base float64) float64 {
	m := c.ScaleMul
	if m <= 0 {
		m = 1
	}
	return base * m
}

// Experiment is a runnable artifact generator.
type Experiment struct {
	ID    string
	Title string
	Run   func(cfg Config) (*Table, error)
}

// Experiments lists every table and figure in paper order, followed by the
// design-choice ablations of DESIGN.md.
func Experiments() []Experiment {
	return []Experiment{
		{"table1", "Three levels in MPI file read functions", Table1},
		{"table2", "Spatial data types and reduction operators", Table2},
		{"table3", "Real-world datasets and sequential parsing time", Table3},
		{"fig5", "Spatial partitioning resulting from file partitioning (default vs non-contiguous view)", Fig5},
		{"fig8", "File read bandwidth, All Objects (92 GB), stripe 64/128 MB, 64 OSTs (Level 0)", Fig8},
		{"fig9", "File read bandwidth, Roads (24 GB), stripe 32 MB, varying OSTs (Level 0)", Fig9},
		{"fig10", "Message vs Overlap partitioning strategy, Lakes (9 GB)", Fig10},
		{"fig11", "Collective read time, Roads (24 GB), stripe 16 MB (Level 1)", Fig11},
		{"fig12", "Binary read: MPI_Type_struct vs MPI_Type_contiguous (GPFS)", Fig12},
		{"fig13", "MPI_Reduce and MPI_Scan with geometric UNION", Fig13},
		{"fig14", "I/O+parsing, All Nodes vs All Objects (GPFS, Level 1)", Fig14},
		{"fig15", "Binary 10 GB: contiguous vs non-contiguous block sizes", Fig15},
		{"fig16", "Non-contiguous polygon I/O with different block sizes (GPFS)", Fig16},
		{"fig17", "Spatial join breakdown vs grid cells (Lakes ⋈ Cemetery, 80 procs)", Fig17},
		{"fig18", "Spatial join breakdown vs processes (Lakes ⋈ Cemetery)", Fig18},
		{"fig19", "Spatial join breakdown vs processes (Roads ⋈ Cemetery)", Fig19},
		{"fig20", "Indexing breakdown, Road Network (137 GB), 2048 cells", Fig20},
		{"ablation-aggsel", "[ablation] cb_nodes hint vs collective read time", AblationAggregators},
		{"ablation-window", "[ablation] sliding-window size of the geometry exchange", AblationWindow},
		{"ablation-cellindex", "[ablation] cell lookup: R-tree of boundaries vs arithmetic", AblationCellIndex},
		{"ablation-dupavoid", "[ablation] reference-point duplicate avoidance", AblationDuplicates},
	}
}

// Run executes the experiment with the given id.
func Run(id string, cfg Config) (*Table, error) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e.Run(cfg)
		}
	}
	var ids []string
	for _, e := range Experiments() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("bench: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}

// nullParser scans records without building geometries; pure-I/O figures
// use it so read bandwidth is not polluted by parse time.
type nullParser struct{}

func (nullParser) Parse([]byte) (geom.Geometry, error) { return nil, nil }

// datasetCache memoizes generated datasets within one process: figure
// sweeps reuse the same file across cluster sizes.
var datasetCache sync.Map // key string -> cachedDataset

type cachedDataset struct {
	f     *pfs.File
	stats datagen.Stats
}

// dataset generates (or reuses) a Table 3 dataset on a fresh filesystem
// with the given striping, in virtual (full-scale) units.
func dataset(spec datagen.Spec, scale float64, params pfs.Params, stripeCount int, virtStripe int64) (*pfs.File, error) {
	f, _, err := datasetWithStats(spec, scale, params, stripeCount, virtStripe)
	return f, err
}

// datasetWithStats is dataset exposing the generation statistics (record
// count, real max record size — the halo bound of the overlap strategy).
func datasetWithStats(spec datagen.Spec, scale float64, params pfs.Params, stripeCount int, virtStripe int64) (*pfs.File, datagen.Stats, error) {
	return datasetEncodedWithStats(spec, scale, datagen.EncodingWKT, params, stripeCount, virtStripe)
}

// datasetEncoded generates (or reuses) a dataset in the given record
// encoding — the text-vs-binary ingest comparison reads the same spec in
// both.
func datasetEncoded(spec datagen.Spec, scale float64, enc datagen.Encoding, params pfs.Params, stripeCount int, virtStripe int64) (*pfs.File, error) {
	f, _, err := datasetEncodedWithStats(spec, scale, enc, params, stripeCount, virtStripe)
	return f, err
}

func datasetEncodedWithStats(spec datagen.Spec, scale float64, enc datagen.Encoding, params pfs.Params, stripeCount int, virtStripe int64) (*pfs.File, datagen.Stats, error) {
	key := fmt.Sprintf("%s|%.0f|%s|%s|%d|%d", spec.Name, scale, enc, params.Name, stripeCount, virtStripe)
	if d, ok := datasetCache.Load(key); ok {
		cd := d.(cachedDataset)
		return cd.f, cd.stats, nil
	}
	fs, err := pfs.New(params)
	if err != nil {
		return nil, datagen.Stats{}, err
	}
	f, stats, err := datagen.GenerateFileEncoded(spec, scale, enc, fs, spec.Name+enc.Ext(), stripeCount, virtStripe)
	if err != nil {
		return nil, stats, err
	}
	datasetCache.Store(key, cachedDataset{f: f, stats: stats})
	return f, stats, nil
}

// realBytes converts a virtual (full-scale) byte quantity to real stored
// bytes at the given scale, keeping at least 1.
func realBytes(virt int64, scale float64) int64 {
	r := int64(float64(virt) / scale)
	if r < 1 {
		r = 1
	}
	return r
}

// maxNow returns the maximum virtual clock across ranks via an MPI
// reduction, so every rank can report the same number.
func maxNow(c *mpi.Comm, t float64) (float64, error) {
	res, err := c.Allreduce(f64bytes(t), 1, mpi.Float64, mpi.OpMaxFloat64)
	if err != nil {
		return 0, err
	}
	return f64of(res), nil
}

func f64bytes(v float64) []byte {
	var buf [8]byte
	putF64(buf[:], v)
	return buf[:]
}

// seconds formats a time in seconds with sensible precision.
func seconds(v float64) string { return fmt.Sprintf("%.2f", v) }
