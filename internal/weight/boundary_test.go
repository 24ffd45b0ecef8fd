package weight_test

import (
	"fmt"
	"go/build/constraint"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestNoDirectStakeReadsOutsideBackends enforces the oracle seam: no
// non-test source file outside internal/ledger (the owner) and
// internal/weight (the backends) may call the ledger's stake readers
// directly. Everything else routes through a weight.Oracle.
func TestNoDirectStakeReadsOutsideBackends(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	// Method-call patterns: plain identifiers (Params.TotalStake field
	// literals, RoleStake.Stake fields) are fine, calls are not.
	re := regexp.MustCompile(`\.(Stake|Stakes|StakesInto|TotalStake)\(`)
	var offenders []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			switch rel {
			case ".git", "internal/ledger", "internal/weight":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if re.MatchString(line) {
				offenders = append(offenders, rel+":"+strconv.Itoa(i+1)+": "+strings.TrimSpace(line))
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Fatalf("direct ledger stake reads outside the weight seam:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// TestOnlyKnownBuildTags enforces the build-tag budget: a //go:build
// constraint in a non-test source file may name only the tags whose
// fast paths still keep a production oracle switch. Every other
// differential oracle lives in a _test.go reference model instead.
func TestOnlyKnownBuildTags(t *testing.T) {
	root, err := moduleRoot()
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]bool{"sim_legacy_heap": true, "protocol_pernode_draw": true, "obs_off": true}
	var offenders []string
	err = filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == "." {
				return nil
			}
			// Hidden directories hold VCS and build state; a nested
			// go.mod starts another module.
			if strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(src), "\n") {
			if strings.HasPrefix(line, "package ") {
				break
			}
			if !constraint.IsGoBuild(line) {
				continue
			}
			expr, err := constraint.Parse(line)
			if err != nil {
				return fmt.Errorf("%s:%d: %w", rel, i+1, err)
			}
			expr.Eval(func(tag string) bool {
				if !allowed[tag] {
					offenders = append(offenders, rel+":"+strconv.Itoa(i+1)+": "+tag)
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offenders) > 0 {
		t.Fatalf("build tags outside {sim_legacy_heap, protocol_pernode_draw, obs_off}; move the oracle into a _test.go reference model:\n  %s",
			strings.Join(offenders, "\n  "))
	}
}

// moduleRoot walks up from the working directory to the go.mod.
func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", os.ErrNotExist
		}
		dir = parent
	}
}
