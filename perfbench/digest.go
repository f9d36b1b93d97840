package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// digest hashes named byte strings; names and lengths are framed in,
// so concatenations cannot collide.
type digest struct{ h hash.Hash }

func newDigest() *digest { return &digest{sha256.New()} }

func (d *digest) add(name string, data []byte) {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:], uint64(len(name)))
	d.h.Write(n[:])
	d.h.Write([]byte(name))
	binary.LittleEndian.PutUint64(n[:], uint64(len(data)))
	d.h.Write(n[:])
	d.h.Write(data)
}

func (d *digest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// goldenFile is digests.json: the development and held-out seeds, and
// the output digest each deterministic workload produced per seed at
// the commit that recorded them. A change that only claims speed must
// reproduce every digest.
type goldenFile struct {
	DevSeed     uint64                       `json:"dev_seed"`
	HeldOutSeed uint64                       `json:"held_out_seed"`
	Digests     map[string]map[string]string `json:"digests"`
}

func loadGoldens(path string) (*goldenFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("golden digests: %w", err)
	}
	var g goldenFile
	if err := json.Unmarshal(data, &g); err != nil {
		return nil, fmt.Errorf("golden digests %s: %w", path, err)
	}
	return &g, nil
}

// recordMain regenerates the digests in digests.json for the
// deterministic workloads over a seed range, each seed in a fresh
// worker process; the development and held-out seeds stay as the file
// names them:
//
//	perfbench record -root . -seeds 0-20
func recordMain(args []string) error {
	fs := flag.NewFlagSet("record", flag.ContinueOnError)
	root := fs.String("root", ".", "repository root")
	seeds := fs.String("seeds", "0-20", "inclusive seed range lo-hi")
	if err := fs.Parse(args); err != nil {
		return err
	}
	lo, hi, ok := strings.Cut(*seeds, "-")
	from, err1 := strconv.ParseUint(lo, 10, 64)
	to, err2 := strconv.ParseUint(hi, 10, 64)
	if !ok || err1 != nil || err2 != nil || to < from {
		return fmt.Errorf("bad -seeds %q (want lo-hi)", *seeds)
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	path := filepath.Join(*root, "perfbench", "digests.json")
	g, err := loadGoldens(path)
	if err != nil {
		return err
	}
	g.Digests = map[string]map[string]string{}
	for _, name := range workloadNames() {
		if workloads[name].reference != nil {
			continue
		}
		g.Digests[name] = map[string]string{}
		for s := from; s <= to; s++ {
			d := &harness{args: harnessArgs{root: *root, workload: name, seed: s}, self: self}
			r, err := d.spawn("full", false)
			if err != nil {
				return err
			}
			if len(r.Checks) > 0 || r.Failed > 0 {
				return fmt.Errorf("%s seed %d: %s", name, s, strings.Join(append(r.Errors, r.Checks...), "; "))
			}
			g.Digests[name][strconv.FormatUint(s, 10)] = r.Digest
			fmt.Fprintf(os.Stderr, "%s seed %d: %s\n", name, s, r.Digest)
		}
	}
	return writeGoldens(path, g)
}

func writeGoldens(path string, g *goldenFile) error {
	data, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
