// Command docscheck keeps the repository's documentation anchored to
// the tree it describes. Three classes of drift are cheap to catch
// mechanically — a table row naming a file that was later renamed, a
// "DESIGN.md §N" cross-reference pointing at a section that does not
// exist yet, and an audit rule added or deleted without its row in the
// rule table — so `make docs-check` (and CI) runs this on every change.
//
// Checks:
//
//  1. Every file, package or command named in the first column of an
//     ARCHITECTURE.md table exists on disk. Backtick-quoted tokens are
//     extracted from the first cell of each `| ... |` row; a token
//     containing a glob metacharacter (`BENCH_*.json`) must match at
//     least one file, any other token must stat.
//  2. Every `DESIGN.md §N` cross-reference in a *.go or *.md file
//     resolves to a real `## N.` section heading in DESIGN.md. Range
//     references (`DESIGN.md §14–15`) are checked at both endpoints.
//  3. The audit rules named in DESIGN.md §10's rule table (the table
//     headed `| rule | invariant |`; the backticked first cell of each
//     row) are exactly the string values
//     of the `Audit*` constants in region_audit.go: a rule with no row,
//     or a row with no rule, is reported.
//
// Exit status is non-zero if any reference dangles, with one line per
// problem; on success it prints a one-line summary of what was checked.
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

var (
	// A table row whose first cell names something on disk.
	tokenRe = regexp.MustCompile("`([^`]+)`")
	// `## 14. Ownership and transfer` — DESIGN.md's numbered sections.
	headingRe = regexp.MustCompile(`^## ([0-9]+)\.`)
	// `AuditSlabPagesTotal = "slab-pages-total"` in region_audit.go.
	ruleConstRe = regexp.MustCompile(`^\s*Audit[A-Za-z]+\s*=\s*"([^"]+)"`)
	// `DESIGN.md §11` or a range, `DESIGN.md §14–15` / `§14–§15`.
	// The en dash is the house style but a plain hyphen also counts.
	refRe = regexp.MustCompile(`DESIGN\.md §([0-9]+)(?:[–-]§?([0-9]+))?`)
)

func main() {
	root := flag.String("root", ".", "repository root to check")
	flag.Parse()

	var problems []string
	fail := func(format string, args ...any) {
		problems = append(problems, fmt.Sprintf(format, args...))
	}

	// Check 1: ARCHITECTURE.md table rows name real paths.
	entries := 0
	archPath := filepath.Join(*root, "ARCHITECTURE.md")
	arch, err := os.Open(archPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	sc := bufio.NewScanner(arch)
	for line := 1; sc.Scan(); line++ {
		row := sc.Text()
		if !strings.HasPrefix(row, "| `") {
			continue
		}
		cells := strings.Split(row, "|")
		if len(cells) < 2 {
			continue
		}
		for _, m := range tokenRe.FindAllStringSubmatch(cells[1], -1) {
			entries++
			tok := m[1]
			if strings.ContainsAny(tok, "*?[") {
				hits, err := filepath.Glob(filepath.Join(*root, tok))
				if err != nil || len(hits) == 0 {
					fail("ARCHITECTURE.md:%d: pattern `%s` matches nothing", line, tok)
				}
				continue
			}
			if _, err := os.Stat(filepath.Join(*root, tok)); err != nil {
				fail("ARCHITECTURE.md:%d: `%s` does not exist", line, tok)
			}
		}
	}
	arch.Close()
	if err := sc.Err(); err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}

	// Check 2: §-references resolve against DESIGN.md's headings.
	sections := map[string]bool{}
	design, err := os.ReadFile(filepath.Join(*root, "DESIGN.md"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	for _, l := range strings.Split(string(design), "\n") {
		if m := headingRe.FindStringSubmatch(l); m != nil {
			sections[m[1]] = true
		}
	}

	refs := 0
	err = filepath.WalkDir(*root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == ".git" {
				return filepath.SkipDir
			}
			return nil
		}
		ext := filepath.Ext(path)
		if ext != ".go" && ext != ".md" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(*root, path)
		for i, l := range strings.Split(string(data), "\n") {
			for _, m := range refRe.FindAllStringSubmatch(l, -1) {
				for _, n := range m[1:] {
					if n == "" {
						continue
					}
					refs++
					if !sections[n] {
						fail("%s:%d: DESIGN.md §%s does not resolve (no `## %s.` heading)", rel, i+1, n, n)
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}

	// Check 3: DESIGN.md §10's rule table names exactly the audit rules.
	rules := 0
	src, err := os.ReadFile(filepath.Join(*root, "region_audit.go"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "docscheck:", err)
		os.Exit(1)
	}
	inCode := map[string]bool{}
	for _, l := range strings.Split(string(src), "\n") {
		if m := ruleConstRe.FindStringSubmatch(l); m != nil {
			inCode[m[1]] = true
		}
	}
	inTable := map[string]bool{}
	section, inRuleTable := "", false
	for _, l := range strings.Split(string(design), "\n") {
		if m := headingRe.FindStringSubmatch(l); m != nil {
			section = m[1]
		}
		switch {
		case section == "10" && strings.HasPrefix(l, "| rule |"):
			inRuleTable = true
		case !strings.HasPrefix(l, "|"):
			inRuleTable = false
		case inRuleTable:
			if m := tokenRe.FindStringSubmatch(strings.Split(l, "|")[1]); m != nil {
				inTable[m[1]] = true
			}
		}
	}
	for _, name := range sortedKeys(inCode) {
		rules++
		if !inTable[name] {
			fail("DESIGN.md §10: audit rule `%s` (region_audit.go) has no row in the rule table", name)
		}
	}
	for _, name := range sortedKeys(inTable) {
		if !inCode[name] {
			fail("DESIGN.md §10: rule table row `%s` names no Audit* constant in region_audit.go", name)
		}
	}

	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, "docscheck:", p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Printf("docscheck: %d table entries exist, %d §-references resolve across %d DESIGN.md sections, %d audit rules documented\n",
		entries, refs, len(sections), rules)
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
