package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"sync"

	gt "gputopdown"
	"gputopdown/internal/check"
)

// goldenDir is the repository's corpus of canonical level-3 reports, one per
// suite app per GPU model, relative to the checkout root.
const goldenDir = "internal/check/testdata/golden"

// profileKey names one profile: an app on a GPU model at a Top-Down level.
type profileKey struct {
	gpu, suite, app string
	level           int
}

func (k profileKey) String() string {
	return fmt.Sprintf("%s/%s@%s L%d", k.suite, k.app, k.gpu, k.level)
}

// maxDiffLines caps the DiffJSON lines printed per mismatching report, and
// maxDiffs the number of mismatching reports printed at all.
const (
	maxDiffLines = 8
	maxDiffs     = 3
)

// checker verifies every canonical report a run produces and counts the
// run's operations. A level-3 report must equal the golden corpus byte for
// byte; a level-1 report must hash to its stored digest (l1Digests). The
// traced pipeline's reports go through the same check, so when both pass
// they equal the untraced ones.
type checker struct {
	root string
	out  io.Writer

	mu     sync.Mutex
	tally  tally
	golden map[profileKey][]byte
	shown  int
}

func newChecker(root string, out io.Writer) *checker {
	return &checker{root: root, out: out, golden: map[profileKey][]byte{}}
}

// attempt counts one operation.
func (c *checker) attempt() {
	c.mu.Lock()
	c.tally.attempted++
	c.mu.Unlock()
}

// fail counts an operation that returned an error; refused marks a
// submission the daemon turned away.
func (c *checker) fail(what string, err error, refused bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if refused {
		c.tally.refused++
	} else {
		c.tally.errors++
	}
	fmt.Fprintf(c.out, "error: %s: %v\n", what, err)
}

// report checks one report and returns whether it matched. The caller has
// already counted the operation with attempt.
func (c *checker) report(k profileKey, rep *gt.JobReport) bool {
	got, err := check.ReportJSON(rep)
	if err != nil {
		c.fail(k.String(), err, false)
		return false
	}
	return c.bytes(k, got)
}

func (c *checker) bytes(k profileKey, got []byte) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	ok := true
	if k.level == 3 {
		want, err := c.goldenFor(k)
		if err != nil {
			fmt.Fprintf(c.out, "mismatch: %s: %v\n", k, err)
			ok = false
		} else if !bytes.Equal(want, got) {
			c.showDiff(k, want, got)
			ok = false
		}
	} else {
		sum := sha256.Sum256(got)
		if d := hex.EncodeToString(sum[:]); d != l1Digests[k] {
			fmt.Fprintf(c.out, "mismatch: %s: report digest %s, stored %q\n", k, d, l1Digests[k])
			ok = false
		}
	}
	if !ok {
		c.tally.mismatched++
	}
	return ok
}

func (c *checker) goldenFor(k profileKey) ([]byte, error) {
	if b, ok := c.golden[k]; ok {
		return b, nil
	}
	b, err := os.ReadFile(filepath.Join(c.root, goldenDir, k.gpu, k.suite+"__"+k.app+".json"))
	if err != nil {
		return nil, err
	}
	c.golden[k] = b
	return b, nil
}

func (c *checker) showDiff(k profileKey, want, got []byte) {
	if c.shown++; c.shown > maxDiffs {
		return
	}
	lines := strings.Split(check.DiffJSON(want, got), "\n")
	if len(lines) > maxDiffLines {
		lines = append(lines[:maxDiffLines], "...")
	}
	fmt.Fprintf(c.out, "mismatch: %s differs from the golden corpus:\n  %s\n", k, strings.Join(lines, "\n  "))
}

func (c *checker) snapshot() tally {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tally
}
