// Command docgen keeps the repo's documentation honest: it regenerates
// docs/cli.md (the CLI flag reference, captured from each command's -h
// output), checks every intra-repo markdown link resolves to a real
// file, and checks every *.md path a Go // comment cites resolves from
// the repository root.
//
// Usage:
//
//	go run ./cmd/docgen           # rewrite docs/cli.md
//	go run ./cmd/docgen -check    # CI mode: fail on stale docs/cli.md,
//	                              # broken intra-repo markdown links or
//	                              # unresolved *.md paths in Go comments
//
// Run it from the repository root (where go.mod lives). The CI "docs"
// job runs the -check mode on every push, so a flag change that is not
// followed by a docgen run — or a doc or comment that cites a moved
// file — fails the build instead of rotting.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"go/scanner"
	"go/token"
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

	broken, err := checkLinks(".")
	if err != nil {
		fatal(err)
	}
	for _, b := range broken {
		fmt.Fprintf(os.Stderr, "docgen: %s\n", b)
		failed = true
	}
	if failed {
		os.Exit(1)
	}
	if *check {
		fmt.Println("docgen: docs/cli.md current, all intra-repo links and comment paths resolve")
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

// checkLinks walks every .md and .go file under root (skipping VCS and
// tool directories). In a .md file every relative link target — after
// stripping any #fragment — must exist on disk; fenced code blocks are
// ignored, as snippets legitimately contain link-shaped text. In a .go
// file every *.md path in a // comment must resolve from root
// (commentPaths).
func checkLinks(root string) ([]string, error) {
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
		if strings.HasSuffix(path, ".go") {
			cited, err := commentPaths(root, path)
			broken = append(broken, cited...)
			return err
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
					broken = append(broken, fmt.Sprintf("broken link: %s -> %s", path, m[1]))
				}
			}
		}
		return nil
	})
	return broken, err
}

// mdPath matches a *.md path in a comment. The character before it may
// not belong to a path or a URL, so a link's tail never matches.
var mdPath = regexp.MustCompile(`(?:^|[^\w./:-])(\w[\w./-]*\.md)\b`)

// commentPaths reports each *.md path in a // comment of the Go file
// at path that does not resolve from root. String literals are not
// comments and are not read.
func commentPaths(root, path string) ([]string, error) {
	src, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	fset := token.NewFileSet()
	var sc scanner.Scanner
	sc.Init(fset.AddFile(path, -1, len(src)), src, nil, scanner.ScanComments)
	var broken []string
	for {
		pos, tok, lit := sc.Scan()
		if tok == token.EOF {
			return broken, nil
		}
		if tok != token.COMMENT || !strings.HasPrefix(lit, "//") {
			continue
		}
		for _, m := range mdPath.FindAllStringSubmatch(lit, -1) {
			if _, err := os.Stat(filepath.Join(root, m[1])); err != nil {
				broken = append(broken, fmt.Sprintf("comment cites a missing file: %s -> %s", fset.Position(pos), m[1]))
			}
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "docgen:", err)
	os.Exit(1)
}
