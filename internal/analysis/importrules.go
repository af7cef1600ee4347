package analysis

import (
	"strconv"
	"strings"
)

// ImportRules enforces the repo's package layering. Each rule binds to
// one package (and its subpackages) and either bans specific import
// edges or restricts the package to the standard library. The rules are
// the load-bearing facts from ROADMAP.md's architecture section, now
// checked by machine.
var ImportRules = &Analyzer{
	Name: "importrules",
	Doc: "enforce package layering: experiments must not import the teccl root, " +
		"wire stays stdlib-only, client must not import the daemon",
	Run: runImportRules,
}

// bannedImport is one forbidden edge. Subtree bans cover the path and
// everything under it; exact bans cover only the path itself (banning
// the root package "teccl" must not ban "teccl/...").
type bannedImport struct {
	path    string
	subtree bool
	why     string
}

// importRule scopes a set of bans (or a stdlib-only restriction) to one
// package subtree.
type importRule struct {
	pkg     string
	stdOnly bool
	why     string // stdlib-only rationale
	bans    []bannedImport
}

var importRules = []importRule{
	{
		pkg: "teccl/internal/experiments",
		bans: []bannedImport{{
			path: "teccl",
			why:  "the root bench test imports experiments, so the reverse edge is an import cycle; use the internal packages (or teccl/client) directly",
		}},
	},
	{
		pkg:     "teccl/wire",
		stdOnly: true,
		why:     "the v1 wire schema is a pure serialization contract; conversions live in teccl/internal/wireconv",
	},
	{
		pkg: "teccl/client",
		bans: []bannedImport{{
			path: "teccl/internal/daemon", subtree: true,
			why: "the client must stay deployable without the serving tier",
		}},
	},
}

func runImportRules(pass *Pass) error {
	for _, r := range importRules {
		if pass.PkgPath != r.pkg && !strings.HasPrefix(pass.PkgPath, r.pkg+"/") {
			continue
		}
		for _, f := range pass.Files {
			for _, imp := range f.Imports {
				path, err := strconv.Unquote(imp.Path.Value)
				if err != nil {
					continue
				}
				if r.stdOnly && !isStdlib(path) {
					pass.Reportf(imp.Pos(),
						"%s must import only the standard library, not %q: %s",
						r.pkg, path, r.why)
					continue
				}
				for _, b := range r.bans {
					if path == b.path || (b.subtree && strings.HasPrefix(path, b.path+"/")) {
						pass.Reportf(imp.Pos(),
							"%s must not import %q: %s", r.pkg, path, b.why)
					}
				}
			}
		}
	}
	return nil
}
