package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestParseEscape feeds captured -gcflags=-m output shapes through the
// fail-closed parser.
func TestParseEscape(t *testing.T) {
	tests := []struct {
		name    string
		in      string
		want    []escDiag
		wantErr string // non-empty: the parse must fail with it
	}{
		{
			name: "headers and benign families",
			in: "# optipart/internal/sfc\n" +
				"internal/sfc/key.go:10:6: can inline Key.Valid\n" +
				"internal/sfc/key.go:20:7: leaking param: s to result ~r0 level=0\n" +
				"internal/sfc/key.go:30:13: inlining call to lowMask\n" +
				"internal/sfc/rank.go:123:11: index bounds check elided\n" +
				"<autogenerated>:1: inlining call to Key.Parent\n" +
				"\n" +
				"# optipart/internal/octree\n" +
				"internal/octree/soa.go:34:22: ks does not escape\n",
			want: []escDiag{
				{File: "internal/sfc/key.go", Line: 10, Col: 6, Msg: "can inline Key.Valid"},
				{File: "internal/sfc/key.go", Line: 20, Col: 7, Msg: "leaking param: s to result ~r0 level=0"},
				{File: "internal/sfc/key.go", Line: 30, Col: 13, Msg: "inlining call to lowMask"},
				{File: "internal/sfc/rank.go", Line: 123, Col: 11, Msg: "index bounds check elided"},
				{File: "internal/octree/soa.go", Line: 34, Col: 22, Msg: "ks does not escape"},
			},
		},
		{
			name: "heap diagnostics classified",
			in: "internal/service/service.go:339:16: make([]sfc.Key, 0, psort.n) escapes to heap\n" +
				"internal/service/service.go:473:12: new(psort.Arena) escapes to heap\n" +
				"internal/comm/comm.go:50:2: moved to heap: buf\n" +
				"internal/comm/comm.go:60:10: func literal escapes to heap\n" +
				"internal/comm/comm.go:61:10: func literal does not escape\n",
			want: []escDiag{
				{File: "internal/service/service.go", Line: 339, Col: 16, Msg: "make([]sfc.Key, 0, psort.n) escapes to heap", Heap: true},
				{File: "internal/service/service.go", Line: 473, Col: 12, Msg: "new(psort.Arena) escapes to heap", Heap: true},
				{File: "internal/comm/comm.go", Line: 50, Col: 2, Msg: "moved to heap: buf", Heap: true},
				{File: "internal/comm/comm.go", Line: 60, Col: 10, Msg: "func literal escapes to heap", Heap: true},
				{File: "internal/comm/comm.go", Line: 61, Col: 10, Msg: "func literal does not escape"},
			},
		},
		{
			name: "multi-line inlining diagnostic with indented continuations",
			in: "internal/psort/sort.go:40:6: cannot inline TreeSort: function too complex: cost 321 exceeds budget 80\n" +
				"\tinternal/psort/sort.go:45:10: radixPass\n" +
				"\tinternal/psort/sort.go:52:10: scatter\n" +
				"internal/psort/sort.go:90:14: a does not escape\n",
			want: []escDiag{
				{File: "internal/psort/sort.go", Line: 40, Col: 6, Msg: "cannot inline TreeSort: function too complex: cost 321 exceeds budget 80"},
				{File: "internal/psort/sort.go", Line: 90, Col: 14, Msg: "a does not escape"},
			},
		},
		{
			name: "self-assignment note carries a function prefix",
			in:   "internal/octree/soa.go:30:25: (*SoA).Reset ignoring self-assignment in s.X, s.Y = s.X[:0], s.Y[:0]\n",
			want: []escDiag{
				{File: "internal/octree/soa.go", Line: 30, Col: 25, Msg: "(*SoA).Reset ignoring self-assignment in s.X, s.Y = s.X[:0], s.Y[:0]"},
			},
		},
		{
			name: "absolute stdlib path skipped",
			in: "/usr/local/go/src/sync/mutex.go:100:6: can inline (*Mutex).Lock\n" +
				"internal/sfc/key.go:10:6: can inline Key.Valid\n",
			want: []escDiag{
				{File: "internal/sfc/key.go", Line: 10, Col: 6, Msg: "can inline Key.Valid"},
			},
		},
		{
			name: "go version drift fails closed on unknown family",
			in: "internal/sfc/key.go:10:6: can inline Key.Valid\n" +
				"internal/sfc/key.go:12:9: k now frobnicates the heap\n",
			wantErr: "diagnostic vocabulary",
		},
		{
			name:    "go version drift fails closed on unknown line shape",
			in:      "escape analysis summary: 12 allocations\n",
			wantErr: "unrecognized -m output",
		},
		{
			name:    "continuation with no preceding diagnostic fails closed",
			in:      "\tinternal/psort/sort.go:45:10: radixPass\n",
			wantErr: "no preceding diagnostic",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := parseEscape(strings.NewReader(tt.in))
			if tt.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tt.wantErr) {
					t.Fatalf("error = %v, want containing %q", err, tt.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("parseEscape: %v", err)
			}
			if len(got) != len(tt.want) {
				t.Fatalf("got %d diagnostics, want %d: %+v", len(got), len(tt.want), got)
			}
			for i := range got {
				if got[i] != tt.want[i] {
					t.Errorf("diag[%d] = %+v, want %+v", i, got[i], tt.want[i])
				}
			}
		})
	}
}

// TestAllocZeroFailsOnHitPathAllocation builds the allocbad fixture with
// -gcflags=-m: a Service.Do-shaped hit path that allocates on its miss
// branch fails its //alloc:zero contract, naming the function, and so does
// a local moved to the heap; the malformed annotations there are findings
// too (each line's // want marker).
func TestAllocZeroFailsOnHitPathAllocation(t *testing.T) {
	res := checkFixture(t, "allocbad")
	if res.Contracts != 2 {
		t.Errorf("allocbad: %d contracts, want 2", res.Contracts)
	}
	var hit int
	for _, d := range res.Diagnostics {
		if d.Rule == "alloczero" && strings.HasPrefix(d.Message, "Do allocates") &&
			strings.Contains(d.Message, "escapes to heap") {
			hit++
		}
	}
	if hit != 1 {
		t.Fatalf("allocbad: %d escapes-to-heap findings in Do, want 1: %v", hit, res.Diagnostics)
	}
}

// TestAllocZeroPassesCleanAndWaived covers the two green shapes in the
// allocok fixture: a genuinely allocation-free contract, and contracts whose
// one allocation each carries a reasoned alloczero waiver that silences it.
func TestAllocZeroPassesCleanAndWaived(t *testing.T) {
	res := checkFixture(t, "allocok")
	if len(res.Suppressions) != 2 || len(res.Stale) != 0 {
		t.Fatalf("allocok: suppressions %v, stale %v; want two waivers, none stale", res.Suppressions, res.Stale)
	}
	for _, s := range res.Suppressions {
		if s.Rule != "alloczero" || s.Reason == "" {
			t.Errorf("allocok: suppression %s, want a reasoned alloczero waiver", s)
		}
	}
}

// TestAllocZeroScan pins how contracts and waivers are read: //alloc:zero
// with and without prose is a contract, a trailing waiver targets its own
// line and a standalone one the line after it.
func TestAllocZeroScan(t *testing.T) {
	res := checkFixture(t, "allocok")
	if res.Contracts != 3 {
		t.Errorf("allocok: %d contracts, want 3", res.Contracts)
	}
	if len(res.Suppressions) != 2 {
		t.Fatalf("allocok: suppressions %v, want two waivers", res.Suppressions)
	}
	if s := res.Suppressions[0]; s.Target != s.Line {
		t.Errorf("trailing waiver targets line %d, want %d", s.Target, s.Line)
	}
	if s := res.Suppressions[1]; s.Target != s.Line+1 {
		t.Errorf("standalone waiver targets line %d, want %d", s.Target, s.Line+1)
	}
}

// TestAllocZeroRejectsMalformedAnnotations: each malformed annotation is
// one finding of its own, and a file holding only it has no contract, so
// no -m build runs.
func TestAllocZeroRejectsMalformedAnnotations(t *testing.T) {
	tests := []struct {
		name, src, rule, want string
	}{
		{
			name: "waiver without reason",
			src:  "package p\n\nfunc g() {}\n\nfunc f() {\n\tg() //lint:ignore alloczero\n}\n",
			rule: "lintdirective",
			want: "without a reason",
		},
		{
			name: "unknown verb",
			src:  "package p\n\n//alloc:none\nfunc f() {}\n",
			rule: "alloczero",
			want: "unknown annotation",
		},
		{
			name: "zero outside a doc comment",
			src:  "package p\n\nfunc g() {}\n\nfunc f() {\n\t//alloc:zero\n\tg()\n}\n",
			rule: "alloczero",
			want: "must be in a function's doc comment",
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			dir := t.TempDir()
			if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(tt.src), 0o644); err != nil {
				t.Fatal(err)
			}
			pkg, err := fixtureLoader(t).LoadDir(dir, fixturePrefix+"malformed/"+strings.ReplaceAll(tt.name, " ", "_"))
			if err != nil {
				t.Fatal(err)
			}
			res := RunPackage(pkg)
			if len(res.Diagnostics) != 1 || res.Diagnostics[0].Rule != tt.rule ||
				!strings.Contains(res.Diagnostics[0].Message, tt.want) {
				t.Fatalf("diagnostics = %v, want one %s finding containing %q", res.Diagnostics, tt.rule, tt.want)
			}
			if res.Contracts != 0 {
				t.Errorf("%d contracts, want 0", res.Contracts)
			}
		})
	}
}

// TestStaleSuppressionNote: a directive whose line has no finding of its
// rule is reported as stale, and is not itself a finding.
func TestStaleSuppressionNote(t *testing.T) {
	res := checkFixture(t, "stale")
	if len(res.Stale) != 1 || res.Stale[0].Rule != "alloczero" || res.Stale[0].Target != 9 {
		t.Fatalf("stale = %v, want the one alloczero waiver on line 9", res.Stale)
	}
}

// TestCheckModuleRefusesVacuousRun: a module with no //alloc:zero contract
// is an error, not a silent pass.
func TestCheckModuleRefusesVacuousRun(t *testing.T) {
	dir := t.TempDir()
	for name, src := range map[string]string{
		"go.mod":     "module scratch\n\ngo 1.22\n",
		"scratch.go": "package scratch\n\nfunc f() int { return 1 }\n",
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.CheckModule(); err == nil || !strings.Contains(err.Error(), "no //alloc:zero contracts") {
		t.Fatalf("error = %v, want the vacuous-run refusal", err)
	}
}
