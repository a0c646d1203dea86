package cli

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// run executes the CLI and returns (stdout, stderr, exit code).
func run(args ...string) (string, string, int) {
	var out, errOut bytes.Buffer
	code := Run(args, &out, &errOut)
	return out.String(), errOut.String(), code
}

// writeCSV drops a CSV fixture into a temp dir.
func writeCSV(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

const officeCSV = `id,facility,room,floor,city,w
1,HQ,322,3,Paris,2
2,HQ,322,30,Madrid,1
3,HQ,122,1,Madrid,1
4,Lab1,B35,3,London,2
`

func TestUsageAndUnknown(t *testing.T) {
	_, errOut, code := run()
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("no-args: code %d, stderr %q", code, errOut)
	}
	_, errOut, code = run("bogus")
	if code != 2 || !strings.Contains(errOut, "usage:") {
		t.Fatalf("unknown: code %d", code)
	}
	out, _, code := run("help")
	if code != 0 || !strings.Contains(out, "usage:") {
		t.Fatalf("help: code %d", code)
	}
}

func TestDemo(t *testing.T) {
	out, _, code := run("demo")
	if code != 0 {
		t.Fatalf("demo failed: %d", code)
	}
	for _, want := range []string{"optimal S-repair (dist_sub = 2)", "optimal U-repair (dist_upd = 2", "common lhs facility"} {
		if !strings.Contains(out, want) {
			t.Errorf("demo output missing %q", want)
		}
	}
}

// TestBatch: the batch subcommand repairs several CSVs in one run,
// reports a per-file summary, and keeps per-file isolation (a file
// whose FD set fails auto mode errors alone; the rest still repair).
func TestBatch(t *testing.T) {
	a := writeCSV(t, "a.csv", officeCSV)
	b := writeCSV(t, "b.csv", officeCSV)
	out, errOut, code := run("batch",
		"-in", a, "-in", b,
		"-fd", "facility -> city", "-workers", "2", "-stats")
	if code != 0 {
		t.Fatalf("batch failed: %d, stderr %q", code, errOut)
	}
	for _, path := range []string{a, b} {
		if !strings.Contains(out, "== "+path+" ==") {
			t.Errorf("stdout missing section for %s:\n%s", path, out)
		}
		if !strings.Contains(errOut, path+": dist_sub=") {
			t.Errorf("stderr missing summary for %s:\n%s", path, errOut)
		}
		if !strings.Contains(errOut, path+": solve stats: nodes=") {
			t.Errorf("stderr missing per-request stats for %s:\n%s", path, errOut)
		}
	}

	// -outdir writes one repaired CSV per input file.
	dir := t.TempDir()
	_, errOut, code = run("batch", "-in", a, "-in", b,
		"-fd", "facility -> city", "-outdir", dir)
	if code != 0 {
		t.Fatalf("batch -outdir failed: %d, stderr %q", code, errOut)
	}
	for _, name := range []string{"a.csv", "b.csv"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("missing %s in -outdir: %v", name, err)
		}
	}

	// auto mode falls back to the 2-approximation on APX-hard FD sets,
	// per file, exactly like `srepair -mode auto`.
	abc := writeCSV(t, "abc.csv", "id,A,B,C\n1,x,y,z\n2,x,y,q\n")
	out, errOut, code = run("batch", "-in", a, "-in", abc,
		"-fd", "A -> B", "-fd", "B -> C")
	if code == 0 {
		// The office file lacks attributes A,B,C so this mix can't run;
		// use two hard-set files instead.
		t.Fatalf("unexpected success mixing schemas: %q", errOut)
	}
	out, errOut, code = run("batch", "-in", abc, "-fd", "A -> B", "-fd", "B -> C")
	if code != 0 {
		t.Fatalf("batch auto on hard set failed: %d, stderr %q", code, errOut)
	}
	if !strings.Contains(errOut, "APX-hard") || !strings.Contains(errOut, abc+": dist_sub=") {
		t.Errorf("auto fallback not reported: %q", errOut)
	}
	if !strings.Contains(out, "== "+abc+" ==") {
		t.Errorf("auto fallback produced no repair output: %q", out)
	}

	// urepair mode rides the same batch entry point.
	_, errOut, code = run("batch", "-in", a, "-fd", "facility -> city", "-mode", "urepair")
	if code != 0 || !strings.Contains(errOut, "dist_upd=") {
		t.Fatalf("batch urepair: code %d, stderr %q", code, errOut)
	}

	if _, _, code := run("batch", "-fd", "A -> B"); code != 1 {
		t.Error("batch without -in must fail")
	}
	// Two inputs sharing a base name would clobber each other in
	// -outdir; refuse up front instead of silently losing a repair.
	other := writeCSV(t, "a.csv", officeCSV) // different temp dir, same base
	if _, errOut, code := run("batch", "-in", a, "-in", other,
		"-fd", "facility -> city", "-outdir", t.TempDir()); code != 1 || !strings.Contains(errOut, "rename an input") {
		t.Errorf("basename collision not rejected: code %d, stderr %q", code, errOut)
	}
	if _, _, code := run("batch", "-in", a, "-fd", "facility -> city", "-mode", "bogus"); code != 1 {
		t.Error("unknown -mode must fail")
	}
}

func TestClassify(t *testing.T) {
	out, _, code := run("classify", "-attrs", "A,B,C", "-fd", "A -> B", "-fd", "B -> C")
	if code != 0 {
		t.Fatalf("classify failed: %d", code)
	}
	if !strings.Contains(out, "APX-complete") || !strings.Contains(out, "class 3") {
		t.Errorf("classify output: %q", out)
	}
	out, _, code = run("classify", "-attrs", "A,B", "-fd", "A -> B")
	if code != 0 || !strings.Contains(out, "polynomial time") {
		t.Errorf("tractable classify: code %d, out %q", code, out)
	}
}

func TestClassifyErrors(t *testing.T) {
	if _, _, code := run("classify", "-fd", "A -> B"); code != 1 {
		t.Error("missing -attrs must fail")
	}
	if _, _, code := run("classify", "-attrs", "A,B"); code != 1 {
		t.Error("missing -fd must fail")
	}
	if _, _, code := run("classify", "-attrs", "A,B", "-fd", "A -> Z"); code != 1 {
		t.Error("unknown attribute must fail")
	}
}

func TestSRepairAuto(t *testing.T) {
	in := writeCSV(t, "office.csv", officeCSV)
	out, errOut, code := run("srepair", "-in", in,
		"-fd", "facility -> city", "-fd", "facility room -> floor")
	if code != 0 {
		t.Fatalf("srepair failed: %d (%s)", code, errOut)
	}
	if !strings.Contains(errOut, "dist_sub): 2") {
		t.Errorf("stderr = %q", errOut)
	}
	if !strings.Contains(out, "Lab1") {
		t.Errorf("stdout = %q", out)
	}
}

func TestSRepairHardFallsBack(t *testing.T) {
	in := writeCSV(t, "abc.csv", "id,A,B,C,w\n1,a,b,c1,1\n2,a,b,c2,1\n")
	_, errOut, code := run("srepair", "-in", in, "-fd", "A -> B", "-fd", "B -> C")
	if code != 0 {
		t.Fatalf("srepair failed: %d (%s)", code, errOut)
	}
	if !strings.Contains(errOut, "2-approximation") {
		t.Errorf("expected fallback note, got %q", errOut)
	}
	// Exact and approx modes work explicitly.
	if _, _, code := run("srepair", "-in", in, "-fd", "A -> B", "-mode", "exact"); code != 0 {
		t.Error("exact mode failed")
	}
	if _, _, code := run("srepair", "-in", in, "-fd", "A -> B", "-mode", "approx"); code != 0 {
		t.Error("approx mode failed")
	}
	if _, _, code := run("srepair", "-in", in, "-fd", "A -> B", "-mode", "zigzag"); code != 1 {
		t.Error("bad mode must fail")
	}
}

func TestSRepairOutFile(t *testing.T) {
	in := writeCSV(t, "office.csv", officeCSV)
	outPath := filepath.Join(t.TempDir(), "repaired.csv")
	_, _, code := run("srepair", "-in", in, "-out", outPath,
		"-fd", "facility -> city", "-fd", "facility room -> floor")
	if code != 0 {
		t.Fatal("srepair -out failed")
	}
	data, err := os.ReadFile(outPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "id,facility,room,floor,city,w") {
		t.Errorf("output CSV malformed: %q", string(data))
	}
}

func TestURepair(t *testing.T) {
	in := writeCSV(t, "office.csv", officeCSV)
	_, errOut, code := run("urepair", "-in", in,
		"-fd", "facility -> city", "-fd", "facility room -> floor")
	if code != 0 {
		t.Fatalf("urepair failed: %d (%s)", code, errOut)
	}
	if !strings.Contains(errOut, "dist_upd): 2") || !strings.Contains(errOut, "optimal") {
		t.Errorf("stderr = %q", errOut)
	}
}

func TestMPD(t *testing.T) {
	in := writeCSV(t, "prob.csv", "id,A,B,w\n1,a,x,0.9\n2,a,y,0.7\n")
	out, errOut, code := run("mpd", "-in", in, "-fd", "A -> B")
	if code != 0 {
		t.Fatalf("mpd failed: %d (%s)", code, errOut)
	}
	if !strings.Contains(errOut, "most probable database: 1 of 2") {
		t.Errorf("stderr = %q", errOut)
	}
	if !strings.Contains(out, "x") || strings.Contains(out, "y") {
		t.Errorf("stdout = %q", out)
	}
	// Probabilities outside (0,1] are rejected.
	bad := writeCSV(t, "bad.csv", "id,A,B,w\n1,a,x,2\n")
	if _, _, code := run("mpd", "-in", bad, "-fd", "A -> B"); code != 1 {
		t.Error("invalid probability must fail")
	}
}

func TestCount(t *testing.T) {
	in := writeCSV(t, "office.csv", officeCSV)
	out, _, code := run("count", "-in", in, "-list", "5",
		"-fd", "facility -> city", "-fd", "facility room -> floor")
	if code != 0 {
		t.Fatalf("count failed: %d", code)
	}
	if !strings.Contains(out, "subset repairs: 2") || !strings.Contains(out, "polynomial counting") {
		t.Errorf("stdout = %q", out)
	}
	if strings.Count(out, "keep [") != 2 {
		t.Errorf("expected 2 listed repairs: %q", out)
	}
	// Non-chain note.
	abc := writeCSV(t, "abc.csv", "id,A,B,C,w\n1,a,b,c1,1\n2,a,b,c2,1\n")
	out, _, code = run("count", "-in", abc, "-fd", "A -> B", "-fd", "B -> C")
	if code != 0 || !strings.Contains(out, "bounded enumeration") {
		t.Errorf("non-chain count: code %d, out %q", code, out)
	}
}

func TestMissingInput(t *testing.T) {
	for _, sub := range []string{"srepair", "urepair", "mpd", "count"} {
		if _, _, code := run(sub, "-fd", "A -> B"); code != 1 {
			t.Errorf("%s without -in must fail", sub)
		}
		if _, _, code := run(sub, "-in", "/nonexistent.csv", "-fd", "A -> B"); code != 1 {
			t.Errorf("%s with missing file must fail", sub)
		}
	}
}

func TestDiffFlags(t *testing.T) {
	in := writeCSV(t, "office.csv", officeCSV)
	out, _, code := run("srepair", "-in", in, "-diff",
		"-fd", "facility -> city", "-fd", "facility room -> floor")
	if code != 0 {
		t.Fatal("srepair -diff failed")
	}
	if !strings.Contains(out, "- delete tuple") {
		t.Errorf("srepair diff = %q", out)
	}
	out, _, code = run("urepair", "-in", in, "-diff",
		"-fd", "facility -> city", "-fd", "facility room -> floor")
	if code != 0 {
		t.Fatal("urepair -diff failed")
	}
	if !strings.Contains(out, "~ tuple") || !strings.Contains(out, "facility:") {
		t.Errorf("urepair diff = %q", out)
	}
}

func TestEntails(t *testing.T) {
	out, _, code := run("entails", "-attrs", "A,B,C",
		"-fd", "A -> B", "-fd", "B -> C", "-check", "A -> C")
	if code != 0 {
		t.Fatal("entails failed")
	}
	if !strings.Contains(out, "fire A → B") || !strings.Contains(out, "⊢ C reached") {
		t.Errorf("derivation = %q", out)
	}
	out, _, code = run("entails", "-attrs", "A,B", "-fd", "A -> B", "-check", "B -> A")
	if code != 0 || !strings.Contains(out, "NOT entailed") {
		t.Errorf("non-entailment: code %d out %q", code, out)
	}
	if _, _, code := run("entails", "-attrs", "A,B", "-fd", "A -> B"); code != 1 {
		t.Error("missing -check must fail")
	}
	if _, _, code := run("entails", "-attrs", "A,B", "-fd", "A -> B", "-check", "A -> Z"); code != 1 {
		t.Error("bad -check must fail")
	}
}

// TestVerifyImpact: the verify subcommand prints the before/after
// impact report of an optimal S-repair — violations per FD, cells
// changed per block — and can write the repaired table out.
func TestVerifyImpact(t *testing.T) {
	in := writeCSV(t, "office.csv", officeCSV)
	dest := filepath.Join(t.TempDir(), "repaired.csv")
	out, errOut, code := run("verify", "-in", in, "-out", dest,
		"-fd", "facility -> city", "-fd", "facility room -> floor",
		"-workers", "2")
	if code != 0 {
		t.Fatalf("verify failed: %d, stderr %q", code, errOut)
	}
	for _, want := range []string{
		"impact: 4 rows",
		"deleted weight (dist_sub) 2",
		"FD",
		"facility → city",
		"facility room → floor",
		"cells-changed",
		"blocks changed",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("verify output missing %q:\n%s", want, out)
		}
	}
	// Both FDs start violated on Office and end clean.
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "facility") {
			continue
		}
		f := strings.Fields(line)
		before, after := f[len(f)-2], f[len(f)-1]
		if before == "0" || after != "0" {
			t.Errorf("violations before/after = %s/%s in %q", before, after, line)
		}
	}
	data, err := os.ReadFile(dest)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Count(string(data), "\n"); got != 3 { // header + 2 kept tuples
		t.Errorf("repaired CSV has %d lines:\n%s", got, data)
	}
	if _, _, code := run("verify", "-fd", "A -> B"); code != 1 {
		t.Error("missing -in must fail")
	}
	if _, _, code := run("verify", "-in", in, "-fd", "facility -> room", "-fd", "room -> floor"); code != 1 {
		t.Error("hard FD set must fail with the dichotomy error")
	}
}

// TestBatchExtensionModes: the constraint-extension modes parse their
// flags through the shared request vocabulary. CQA prints its header
// in schema order (the order answers list values in) whatever order
// -project gives, with spaces around names trimmed; a malformed -fd is
// an error under every mode, cfd included.
func TestBatchExtensionModes(t *testing.T) {
	in := writeCSV(t, "t.csv", "id,A,B,w\n1,a1,x,1\n2,a1,y,1\n3,a2,z,1\n")
	for _, project := range []string{"B,A", "A, B"} {
		out, errOut, code := run("batch", "-in", in, "-fd", "A -> B", "-mode", "cqa", "-project", project)
		if code != 0 {
			t.Fatalf("-project %q: exit %d, stderr %q", project, code, errOut)
		}
		if want := "== " + in + " ==\nA,B\na2,z\n"; out != want {
			t.Errorf("-project %q: stdout %q, want %q", project, out, want)
		}
	}
	for _, args := range [][]string{
		{"-mode", "cfd", "-cfd", "A -> B"},
		{"-mode", "denial", "-dc", "t1.A = t2.A & t1.B != t2.B"},
		{"-mode", "priority", "-fd", "A -> B", "-prefer", "1>2"},
	} {
		if _, errOut, code := run(append([]string{"batch", "-in", in}, args...)...); code != 0 || !strings.Contains(errOut, "dist_sub=") {
			t.Errorf("%v: exit %d, stderr %q", args, code, errOut)
		}
	}
	if _, errOut, code := run("batch", "-in", in, "-mode", "cfd", "-cfd", "A -> B", "-fd", "A -> Nope"); code != 1 || !strings.Contains(errOut, "bad fd") {
		t.Errorf("cfd with malformed -fd: exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := run("batch", "-in", in, "-mode", "cfd"); code != 1 || !strings.Contains(errOut, "(cfd)") {
		t.Errorf("cfd without -cfd: exit %d, stderr %q", code, errOut)
	}
}

// TestModesFromAlgorithmTable: -mode and the usage text come from the
// algorithm table; srepair takes the S-repair algorithms only.
func TestModesFromAlgorithmTable(t *testing.T) {
	out, _, _ := run("help")
	for _, want := range []string{"[-mode auto|optimal|exact|approx]", "[-mode optimal|exact|approx|urepair|mpd|cfd|denial|cqa|priority|auto]"} {
		if !strings.Contains(out, want) {
			t.Errorf("usage missing %q:\n%s", want, out)
		}
	}
	in := writeCSV(t, "office.csv", officeCSV)
	if _, errOut, code := run("srepair", "-in", in, "-fd", "facility -> city", "-mode", "optimal-srepair"); code != 0 {
		t.Errorf("srepair -mode optimal-srepair: exit %d, stderr %q", code, errOut)
	}
	if _, errOut, code := run("srepair", "-in", in, "-fd", "facility -> city", "-mode", "urepair"); code != 1 || !strings.Contains(errOut, "srepair -mode takes auto|optimal|exact|approx") {
		t.Errorf("srepair -mode urepair: exit %d, stderr %q", code, errOut)
	}
}
