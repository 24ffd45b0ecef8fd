package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunRejectsBadFlags(t *testing.T) {
	dir := t.TempDir()
	missing := filepath.Join(dir, "no_such_file")
	// stakeFile writes a population whose third line holds bad; the
	// error must name that line.
	stakeFile := func(bad string) string {
		f, err := os.CreateTemp(dir, "stakes")
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		if _, err := f.WriteString("10\n# comment\n" + bad + "\n20\n"); err != nil {
			t.Fatal(err)
		}
		return f.Name()
	}
	for name, tc := range map[string]struct {
		args []string
		want string
	}{
		"unknown flag":       {args: []string{"-no-such-flag"}},
		"positional args":    {args: []string{"extra"}},
		"bad distribution":   {args: []string{"-dist", "lognormal"}},
		"bad zipf exponent":  {args: []string{"-dist", "zipf:xyz"}},
		"missing stake file": {args: []string{"-stakes", missing}},
		"zipf zero nodes":    {args: []string{"-dist", "zipf", "-nodes", "0"}, want: "-nodes"},
		"negative nodes":     {args: []string{"-dist", "u200", "-nodes", "-5"}, want: "-nodes"},
		"unparsable stake":   {args: []string{"-stakes", stakeFile("ten")}, want: ":3:"},
		"NaN stake":          {args: []string{"-stakes", stakeFile("NaN")}, want: ":3:"},
		"+Inf stake":         {args: []string{"-stakes", stakeFile("+Inf")}, want: ":3:"},
		"-Inf stake":         {args: []string{"-stakes", stakeFile("-Inf")}, want: ":3:"},
		"zero stake":         {args: []string{"-stakes", stakeFile("0")}, want: ":3:"},
		"negative stake":     {args: []string{"-stakes", stakeFile("-7.5")}, want: ":3:"},
	} {
		t.Run(name, func(t *testing.T) {
			var stdout, stderr bytes.Buffer
			err := run(tc.args, &stdout, &stderr)
			if err == nil {
				t.Fatalf("run(%v) succeeded, want error", tc.args)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("run(%v) error %q does not mention %q", tc.args, err, tc.want)
			}
		})
	}
}

func TestRunCertifiesSmallPopulation(t *testing.T) {
	var stdout, stderr bytes.Buffer
	args := []string{"-dist", "u200", "-nodes", "1000"}
	if err := run(args, &stdout, &stderr); err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	if !strings.Contains(stdout.String(), "certified") {
		t.Fatalf("output misses the certification line:\n%s", stdout.String())
	}
}
