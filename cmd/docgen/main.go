// Command docgen keeps the repo's documentation honest: it regenerates
// docs/cli.md (the CLI flag reference, captured from each command's -h
// output) and checks every intra-repo markdown link resolves to a real
// file.
//
// Usage:
//
//	go run ./cmd/docgen           # rewrite docs/cli.md
//	go run ./cmd/docgen -check    # CI mode: fail on stale docs/cli.md
//	                              # or broken intra-repo markdown links
//
// Run it from the repository root (where go.mod lives). The CI "docs"
// job runs the -check mode on every push, so a flag change that is not
// followed by a docgen run — or a doc that links to a moved file —
// fails the build instead of rotting.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
)

// commands lists the CLIs whose -h output is captured into docs/cli.md.
var commands = []string{"paradmm-solve", "paradmm-bench", "paradmm-bulk", "paradmm-serve", "paradmm-shardworker"}

const cliDoc = "docs/cli.md"

func main() {
	check := flag.Bool("check", false, "verify docs/cli.md is current and markdown links resolve; change nothing")
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: docgen [-check]\n\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if _, err := os.Stat("go.mod"); err != nil {
		fatal(errors.New("docgen must run from the repository root (go.mod not found)"))
	}

	want, err := generateCLIDoc()
	if err != nil {
		fatal(err)
	}

	failed := false
	if *check {
		have, err := os.ReadFile(cliDoc)
		if err != nil || !bytes.Equal(have, want) {
			fmt.Fprintf(os.Stderr, "docgen: %s is stale — run `go run ./cmd/docgen` and commit the result\n", cliDoc)
			failed = true
		}
	} else {
		if err := os.MkdirAll(filepath.Dir(cliDoc), 0o755); err != nil {
			fatal(err)
		}
		if err := os.WriteFile(cliDoc, want, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s\n", cliDoc)
	}

	broken, err := checkMarkdownLinks(".")
	if err != nil {
		fatal(err)
	}
	for _, b := range broken {
		fmt.Fprintf(os.Stderr, "docgen: broken link: %s\n", b)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	if *check {
		fmt.Println("docgen: docs/cli.md current, all intra-repo links resolve")
	}
}

// generateCLIDoc builds each command and captures its -h output with a
// pinned argv[0], so the usage header is stable regardless of where the
// binary was built.
func generateCLIDoc() ([]byte, error) {
	tmp, err := os.MkdirTemp("", "docgen")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)

	var b bytes.Buffer
	b.WriteString("# CLI flag reference\n\n")
	b.WriteString("<!-- Generated by `go run ./cmd/docgen`; do not edit by hand.\n")
	b.WriteString("     CI fails when this file is stale (`go run ./cmd/docgen -check`). -->\n\n")
	b.WriteString("Every command's `-h` output, captured verbatim. Longer walkthroughs\n")
	b.WriteString("live in the [README](../README.md) and [docs/partitioning.md](partitioning.md).\n")

	for _, name := range commands {
		bin := filepath.Join(tmp, name)
		build := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		if out, err := build.CombinedOutput(); err != nil {
			return nil, fmt.Errorf("docgen: build %s: %v\n%s", name, err, out)
		}
		cmd := exec.Command(bin, "-h")
		cmd.Args[0] = name // flag prints "usage" from argv[0]; keep it stable
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if err != nil && !errors.As(err, &exit) {
			return nil, fmt.Errorf("docgen: run %s -h: %v", name, err)
		}
		fmt.Fprintf(&b, "\n## %s\n\n```\n%s```\n", name, normalize(out))
	}
	return b.Bytes(), nil
}

// normalize ensures the captured usage ends with exactly one newline.
func normalize(out []byte) string {
	return strings.TrimRight(string(out), "\n") + "\n"
}

// mdLink matches [text](target); targets are filtered afterwards.
var mdLink = regexp.MustCompile(`\[[^\]]*\]\(([^()\s]+)\)`)

// checkMarkdownLinks walks every .md file under root (skipping VCS and
// tool directories) and verifies that every relative link target —
// after stripping any #fragment — exists on disk. Fenced code blocks
// are ignored: snippets legitimately contain link-shaped text.
func checkMarkdownLinks(root string) ([]string, error) {
	var broken []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch d.Name() {
			case ".git", ".claude", "testdata", "node_modules":
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		inFence := false
		for _, line := range strings.Split(string(raw), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range mdLink.FindAllStringSubmatch(line, -1) {
				target := m[1]
				if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
					continue
				}
				if i := strings.IndexByte(target, '#'); i >= 0 {
					target = target[:i]
				}
				if target == "" {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), target)
				if _, err := os.Stat(resolved); err != nil {
					broken = append(broken, fmt.Sprintf("%s -> %s", path, m[1]))
				}
			}
		}
		return nil
	})
	return broken, err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docgen:", err)
	os.Exit(1)
}
