// Live-tree mutation test: connvet must catch real bugs in the real tree,
// not only in the fixtures. The module (without bench/) is copied to a
// temporary directory, connvet is built from the copy, and a clean
// `go vet -vettool` baseline is required. Then each mutation below breaks
// one contract at one annotated production site, and the vet run of the
// mutated package must fail with a diagnostic on the mutated lines. This is
// mutation analysis (DeMillo, Lipton and Sayward, 1978) applied to the
// checker: a mutation that stops firing means an annotation drifted away
// from the code it guards, or an analyzer was neutered.
package lint_test

import (
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// mutation replaces the one occurrence of from in file with to. The vet
// run must then report, on a line that to spans, a diagnostic matching want.
type mutation struct {
	name, file, from, to, want string
}

var liveMutations = []mutation{
	{
		name: "ackafterfsync",
		file: "internal/engine/engine.go",
		from: "\trec := wal.Record{Seq: e.dur.log.LastSeq() + 1, Ins: ins, Del: del}\n",
		to: "\trec := wal.Record{Seq: e.dur.log.LastSeq() + 1, Ins: ins, Del: del}\n" +
			"\tfor _, s := range e.subs {\n\t\ts.fn(EpochRecord{Seq: rec.Seq})\n\t}\n",
		want: `.*\[ackafterfsync\]`,
	},
	{
		name: "dispatcheronly",
		file: "internal/engine/engine.go",
		from: "func (e *Engine) Flush() {\n",
		to:   "func (e *Engine) Flush() {\n\tgo e.execEpoch(nil)\n",
		want: `.*\[dispatcheronly\]`,
	},
	{
		name: "readonlyquery",
		file: "internal/snapshot/snapshot.go",
		from: "func (l *Labels) Connected(u, v int32) bool { return",
		to:   "func (l *Labels) Connected(u, v int32) bool { l.epoch++; return",
		want: `.*\[readonlyquery\]`,
	},
	{
		name: "atomicpublish",
		file: "internal/snapshot/snapshot.go",
		from: "func (s *Store) Prepare(merges []int32) {\n",
		to:   "func (s *Store) Prepare(merges []int32) {\n\ts.cur.Store(s.cur.Load())\n",
		want: `.*\[atomicpublish\]`,
	},
	{
		name: "decoderbounds",
		file: "internal/wire/wire.go",
		from: "ps := make([]Pair, n)",
		to:   "ps := make([]Pair, d.u32())",
		want: `.*\[decoderbounds\]`,
	},
	{
		name: "syncerr",
		file: "internal/wal/wal.go",
		from: "\tst, err := f.Stat()\n\tif err != nil {\n\t\t_ = f.Close()\n",
		to:   "\tst, err := f.Stat()\n\tif err != nil {\n\t\tf.Close()\n",
		want: `.*\[syncerr\]`,
	},
	{
		// Fault sites are a closed type: an unregistered name is a
		// typecheck error rather than an analyzer finding.
		name: "chaos-site",
		file: "internal/wal/wal.go",
		from: "chaos.Inject(chaos.SiteWALAppendPreFsync)",
		to:   `chaos.Inject("wal.append.pre-fsync")`,
		want: `cannot use "wal.append.pre-fsync" \(untyped string constant\) as chaos\.Site value`,
	},
}

func TestLiveTreeMutations(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(root, "go.mod")); err != nil {
		t.Fatalf("module root not found at %s: %v", root, err)
	}
	mod := filepath.Join(t.TempDir(), "mod")
	copyModule(t, root, mod)

	vettool := filepath.Join(t.TempDir(), "connvet")
	goCmd := func(args ...string) (string, error) {
		cmd := exec.Command(goBin, args...)
		cmd.Dir = mod
		cmd.Env = append(os.Environ(), "GOWORK=off", "GOFLAGS=")
		out, err := cmd.CombinedOutput()
		return string(out), err
	}
	if out, err := goCmd("build", "-o", vettool, "./cmd/connvet"); err != nil {
		t.Fatalf("building connvet: %v\n%s", err, out)
	}
	if out, err := goCmd("vet", "-vettool="+vettool, "./..."); err != nil {
		t.Fatalf("baseline go vet -vettool is not clean: %v\n%s", err, out)
	}

	for _, m := range liveMutations {
		t.Run(m.name, func(t *testing.T) {
			path := filepath.Join(mod, filepath.FromSlash(m.file))
			orig, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			src := string(orig)
			if n := strings.Count(src, m.from); n != 1 {
				t.Fatalf("anchor %q occurs %d times in %s, want once", m.from, n, m.file)
			}
			first := strings.Count(src[:strings.Index(src, m.from)], "\n") + 1
			last := first + strings.Count(strings.TrimSuffix(m.to, "\n"), "\n")
			if err := os.WriteFile(path, []byte(strings.Replace(src, m.from, m.to, 1)), 0o644); err != nil {
				t.Fatal(err)
			}
			defer func() {
				if err := os.WriteFile(path, orig, 0o644); err != nil {
					t.Fatal(err)
				}
			}()

			out, err := goCmd("vet", "-vettool="+vettool, "./"+filepath.ToSlash(filepath.Dir(m.file)))
			if err == nil {
				t.Fatalf("go vet passed the mutated tree\n%s", out)
			}
			re := regexp.MustCompile(regexp.QuoteMeta(filepath.Base(m.file)) + `:(\d+):\d+: ` + m.want)
			for _, hit := range re.FindAllStringSubmatch(out, -1) {
				if line, _ := strconv.Atoi(hit[1]); first <= line && line <= last {
					return
				}
			}
			t.Fatalf("no diagnostic matching %q on %s:%d-%d\n%s", m.want, m.file, first, last, out)
		})
	}
}

// copyModule copies the regular files under src to dst, leaving out version
// control and the bench/ module, which `go vet ./...` would not visit.
func copyModule(t *testing.T, src, dst string) {
	t.Helper()
	err := filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == ".git" || rel == "bench" {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(filepath.Join(dst, rel))
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			_ = out.Close()
			return err
		}
		return out.Close()
	})
	if err != nil {
		t.Fatalf("copying module: %v", err)
	}
}
