package lint

// load.go is the stdlib-only package loader. x/tools/go/packages is off the
// table (the module is dependency-free and stays that way), so packages are
// parsed with go/parser and type-checked with go/types directly. Imports
// resolve two ways: module-internal paths ("optipart/...") map onto
// directories under the module root and are checked from source recursively;
// everything else (the stdlib) goes through go/importer's "source" importer,
// which reads GOROOT source and needs no pre-built export data.

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"strings"
)

// Package is one loaded, type-checked package.
type Package struct {
	Path  string // import path (or synthetic path for fixtures)
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info

	loader *Loader
}

// Loader loads and type-checks packages of one module. It caches by import
// path, so loading every package in the module checks each (and each stdlib
// dependency) exactly once.
type Loader struct {
	Fset    *token.FileSet
	ModPath string
	ModRoot string

	cache  map[string]*Package
	stdlib types.ImporterFrom
	builds map[string]escapeBuild // alloczero's -m builds, by pattern
}

// NewLoader builds a loader for the module rooted at modRoot (the directory
// holding go.mod).
func NewLoader(modRoot string) (*Loader, error) {
	data, err := os.ReadFile(filepath.Join(modRoot, "go.mod"))
	if err != nil {
		return nil, err
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("lint: no module line in %s/go.mod", modRoot)
	}
	fset := token.NewFileSet()
	l := &Loader{
		Fset:    fset,
		ModPath: modPath,
		ModRoot: modRoot,
		cache:   map[string]*Package{},
		builds:  map[string]escapeBuild{},
	}
	l.stdlib = importer.ForCompiler(fset, "source", nil).(types.ImporterFrom)
	return l, nil
}

// FindModuleRoot walks up from dir to the nearest go.mod.
func FindModuleRoot(dir string) (string, error) {
	dir, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("lint: no go.mod above %s", dir)
		}
		dir = parent
	}
}

// Import implements types.Importer over the module + stdlib split.
func (l *Loader) Import(path string) (*types.Package, error) {
	if path == l.ModPath || strings.HasPrefix(path, l.ModPath+"/") {
		pkg, err := l.loadModulePath(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return l.stdlib.Import(path)
}

func (l *Loader) loadModulePath(path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	rel := strings.TrimPrefix(strings.TrimPrefix(path, l.ModPath), "/")
	return l.LoadDir(filepath.Join(l.ModRoot, filepath.FromSlash(rel)), path)
}

// LoadDir parses and type-checks the non-test Go files of one directory
// under the given import path. Fixture packages (testdata) are loaded this
// way with synthetic paths.
func (l *Loader) LoadDir(dir, path string) (*Package, error) {
	if p, ok := l.cache[path]; ok {
		return p, nil
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("lint: no Go files in %s", dir)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
	}
	conf := types.Config{Importer: l}
	tpkg, err := conf.Check(path, l.Fset, files, info)
	if err != nil {
		return nil, fmt.Errorf("lint: type-checking %s: %w", path, err)
	}
	p := &Package{Path: path, Dir: dir, Fset: l.Fset, Files: files, Types: tpkg, Info: info, loader: l}
	l.cache[path] = p
	return p, nil
}

// ModulePackageDirs returns every directory under the module root that
// holds a non-test Go package, skipping testdata, hidden directories, and
// vendor-style trees. Paths are returned in lexical order.
func (l *Loader) ModulePackageDirs() ([]string, error) {
	var dirs []string
	err := filepath.WalkDir(l.ModRoot, func(p string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != l.ModRoot && (name == "testdata" || strings.HasPrefix(name, ".") || name == "vendor") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			dir := filepath.Dir(p)
			if len(dirs) == 0 || dirs[len(dirs)-1] != dir {
				dirs = append(dirs, dir)
			}
		}
		return nil
	})
	return dirs, err
}

// ImportPathFor maps a directory under the module root to its import path.
func (l *Loader) ImportPathFor(dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(l.ModRoot, abs)
	if err != nil {
		return "", err
	}
	if rel == "." {
		return l.ModPath, nil
	}
	if strings.HasPrefix(rel, "..") {
		return "", fmt.Errorf("lint: %s is outside module %s", dir, l.ModRoot)
	}
	return l.ModPath + "/" + filepath.ToSlash(rel), nil
}

// LoadModule loads every package in the module.
func (l *Loader) LoadModule() ([]*Package, error) {
	dirs, err := l.ModulePackageDirs()
	if err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, dir := range dirs {
		path, err := l.ImportPathFor(dir)
		if err != nil {
			return nil, err
		}
		pkg, err := l.LoadDir(dir, path)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}
