package main

import (
	"errors"
	"math/rand"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"testing"
	"time"

	"optipart/internal/octree"
)

// childEnv, set to 1 in a process's environment, makes this test binary
// run optipartd's main instead of its tests. The process tests below start
// children with it, and a -launch driver's workers inherit it, because the
// driver re-executes os.Executable: the whole deployment runs from the test
// binary, with no separate build.
const childEnv = "OPTIPARTD_TEST_CHILD"

func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// child is one optipartd process started by a test. It leads its own
// process group, so a kill of the group also takes down every worker a
// driver spawned. Its stdout and stderr go to files, so no pipe held open
// by a grandchild can stall a wait.
type child struct {
	t              *testing.T
	cmd            *exec.Cmd
	stdout, stderr string // file paths
	done           chan struct{}
	err            error // cmd.Wait's result, once done is closed
}

// start runs optipartd with args in a new process group. The group is
// killed when the child exits (nothing it spawned may outlive it) and at
// t's cleanup, so no process survives a failed test.
func start(t *testing.T, args ...string) *child {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	c := &child{t: t, stdout: filepath.Join(dir, "stdout"), stderr: filepath.Join(dir, "stderr"), done: make(chan struct{})}
	outf, err := os.Create(c.stdout)
	if err != nil {
		t.Fatal(err)
	}
	defer outf.Close()
	errf, err := os.Create(c.stderr)
	if err != nil {
		t.Fatal(err)
	}
	defer errf.Close()
	c.cmd = exec.Command(exe, args...)
	c.cmd.Env = append(os.Environ(), childEnv+"=1")
	c.cmd.Stdout, c.cmd.Stderr = outf, errf
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	if err := c.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	go func() {
		c.err = c.cmd.Wait()
		c.killGroup()
		close(c.done)
	}()
	t.Cleanup(c.stop)
	return c
}

// killGroup sends SIGKILL to every process left in the child's group.
func (c *child) killGroup() { _ = syscall.Kill(-c.cmd.Process.Pid, syscall.SIGKILL) }

// stop kills the child's group and waits, at most 10 s, until the child is
// reaped. A child already reaped had its group killed then, and its group
// id may since have been reused, so it is not signalled again.
func (c *child) stop() {
	select {
	case <-c.done:
		return
	default:
	}
	c.killGroup()
	select {
	case <-c.done:
	case <-time.After(10 * time.Second):
		c.t.Errorf("optipartd %v: not reaped 10 s after its group was killed", c.cmd.Args[1:])
	}
}

// wait returns the child's exit code and output once it exits. If it is
// still running after deadline, or past the test's own deadline, its group
// is killed and the test fails naming what it was waiting for.
func (c *child) wait(what string, deadline time.Duration) (code int, stdout, stderr string) {
	c.t.Helper()
	if d, ok := c.t.Deadline(); ok && time.Until(d)-5*time.Second < deadline {
		deadline = time.Until(d) - 5*time.Second
	}
	select {
	case <-c.done:
	case <-time.After(deadline):
		c.stop()
		out, _ := os.ReadFile(c.stderr)
		c.t.Fatalf("%s: still running after %v; killed. stderr:\n%s", what, deadline, out)
	}
	code = -1
	var ee *exec.ExitError
	if c.err == nil {
		code = 0
	} else if errors.As(c.err, &ee) {
		code = ee.ExitCode()
	}
	out, err := os.ReadFile(c.stdout)
	if err != nil {
		c.t.Fatal(err)
	}
	errOut, err := os.ReadFile(c.stderr)
	if err != nil {
		c.t.Fatal(err)
	}
	return code, string(out), string(errOut)
}

// processWait bounds every child's run. It is longer than the drivers'
// own -deadline 90s, so a driver that misses its recovery deadline reports
// that itself before the test gives up on it.
const processWait = 120 * time.Second

// run starts optipartd with args, waits for it under processWait, and
// fails t unless it exits with code want. It returns the child's stdout
// and stderr.
func run(t *testing.T, what string, want int, args ...string) (stdout, stderr string) {
	t.Helper()
	code, stdout, stderr := start(t, args...).wait(what, processWait)
	if code != want {
		t.Fatalf("%s: optipartd %s exited %d, want %d\nstdout:\n%s\nstderr:\n%s",
			what, strings.Join(args, " "), code, want, stdout, stderr)
	}
	return stdout, stderr
}

// mustContain fails t unless out holds every line fragment in want.
func mustContain(t *testing.T, what, out string, want ...string) {
	t.Helper()
	for _, w := range want {
		if !strings.Contains(out, w) {
			t.Errorf("%s lacks %q:\n%s", what, w, out)
		}
	}
}

// TestLocalProcess runs the local mode as a process: a healthy run prints
// the quality table, and a -kill past the run's last collective, a
// non-finite model input and an unknown failure policy each fail the
// process with exit status 1 and a message naming the refusal.
func TestLocalProcess(t *testing.T) {
	stdout, _ := run(t, "local run", 0, "-p", "8", "-n", "20000")
	mustContain(t, "local run stdout", stdout, "predicted app step")

	for _, tc := range []struct {
		what, frag string
		args       []string
	}{
		{"kill past the run's end", "-kill 3@100000 never fired", []string{"-p", "8", "-n", "20000", "-kill", "3@100000"}},
		{"non-finite alpha", "-alpha NaN is not finite", []string{"-p", "8", "-n", "2000", "-alpha", "NaN"}},
		{"unknown failure policy", `unknown failure policy "sometimes"`, []string{"-on-failure=sometimes"}},
	} {
		_, stderr := run(t, tc.what, 1, tc.args...)
		mustContain(t, tc.what+" stderr", stderr, tc.frag)
	}
}

// TestRootWorkerProcesses runs a -listen root and two -connect workers as
// three processes over a unix socket. The root's stdout must equal a local
// run's stdout byte for byte: the wire transport changes where ranks run,
// not one modeled number.
func TestRootWorkerProcesses(t *testing.T) {
	ep := "unix:" + filepath.Join(t.TempDir(), "w.sock")
	world := []string{"-p", "3", "-n", "3000"}
	root := start(t, append([]string{"-listen", ep}, world...)...)
	workers := []*child{
		start(t, append([]string{"-connect", ep, "-rank", "1"}, world...)...),
		start(t, append([]string{"-connect", ep, "-rank", "2"}, world...)...),
	}
	code, rootOut, rootErr := root.wait("the root", processWait)
	if code != 0 {
		t.Fatalf("root exited %d\nstdout:\n%s\nstderr:\n%s", code, rootOut, rootErr)
	}
	for r, w := range workers {
		if code, _, stderr := w.wait("a worker", processWait); code != 0 {
			t.Fatalf("worker rank %d exited %d\nstderr:\n%s", r+1, code, stderr)
		}
	}
	local, _ := run(t, "local reference run", 0, world...)
	if rootOut != local {
		t.Fatalf("root stdout differs from the local run's\n--- root ---\n%s\n--- local ---\n%s", rootOut, local)
	}
}

// TestDegradeProcess runs the default -launch driver: it spawns three
// workers, rank 2 exits at its third collective, phase 1 must fail with a
// structured RankFailure naming it, and phase 2 must repartition onto the
// three survivors within the 90 s deadline.
func TestDegradeProcess(t *testing.T) {
	stdout, _ := run(t, "the degrade driver", 0,
		"-launch", "-p", "4", "-n", "6000", "-kill", "2@3", "-deadline", "90s", "-socket", t.TempDir())
	mustContain(t, "degrade driver stdout", stdout,
		"structured failure as expected", "recovery on 3 survivors completed")
}

// TestRestoreProcess runs the self-healing driver: rank 2 exits
// mid-campaign, the supervisor respawns it, the replacement restores from
// the newest checkpoint, and the driver finds the campaign's digest equal
// to its fault-free golden. The printed digest must also equal a local
// -steps 4 run's, an oracle outside the driver, and the recovery line must
// book the outage as one death and one rejoin with a measured repair time.
func TestRestoreProcess(t *testing.T) {
	stdout, stderr := run(t, "the restore driver", 0,
		"-launch", "-p", "3", "-n", "3000", "-steps", "4", "-on-failure=restore",
		"-kill", "2@30", "-deadline", "90s", "-socket", t.TempDir())
	mustContain(t, "restore driver stdout", stdout,
		"supervisor: respawned rank", "digest matches fault-free golden", "recovery: deaths=1 rejoins=1 ")
	if strings.Contains(stdout, "mttr=0s") {
		t.Errorf("restore driver reports no repair time:\n%s", stdout)
	}
	// The replacement reports where it resumed on stderr, which the
	// driver's workers share with it.
	mustContain(t, "restore driver stderr", stderr, "restoring from epoch")
	restored := regexp.MustCompile(`digest matches fault-free golden \(([0-9a-f]{16})\)`).FindStringSubmatch(stdout)
	local, _ := run(t, "local -steps 4 run", 0, "-p", "3", "-n", "3000", "-steps", "4")
	want := regexp.MustCompile(`campaign: 4 steps completed, digest ([0-9a-f]{16})`).FindStringSubmatch(local)
	if restored == nil || want == nil || restored[1] != want[1] {
		t.Fatalf("restored digest %v, local -steps 4 digest %v\n--- driver ---\n%s\n--- local ---\n%s", restored, want, stdout, local)
	}
}

// TestServeProcess runs the -serve daemon as a process: one request over
// the gob wire, then SIGTERM with the client's connection still open. The
// daemon must drain, exit 0 and report the one miss it served.
func TestServeProcess(t *testing.T) {
	path := filepath.Join(t.TempDir(), "s.sock")
	svc := start(t, "-serve", "unix:"+path)
	cl := dialService(t, path)
	keys := octree.RandomKeys(rand.New(rand.NewSource(1)), 2000, 3, octree.Normal, 2, 14)
	if err := cl.conn.SetDeadline(time.Now().Add(processWait)); err != nil {
		t.Fatal(err)
	}
	if hit, err := cl.do(keys); err != nil || hit {
		t.Fatalf("the daemon's answer to one request (deadline %v): hit=%v err=%v, want a miss", processWait, hit, err)
	}
	if err := svc.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	// TestServeDrain holds the in-process drain to 5 s; the process adds a
	// signal handler and an exit.
	code, stdout, stderr := svc.wait("the daemon's drain after SIGTERM", 10*time.Second)
	if code != 0 {
		t.Fatalf("daemon exited %d after SIGTERM\nstdout:\n%s\nstderr:\n%s", code, stdout, stderr)
	}
	mustContain(t, "daemon stderr", stderr, "served 1 requests: 0 hits, 0 coalesced, 1 misses")
}
