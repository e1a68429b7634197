package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cluster"
)

// Per-node settings, identical on every node (recorded in the fingerprint).
// The whole benchmark shares one CPU (pinToOneCPU), so each node gets one P
// and one worker.
const (
	nodeGOMAXPROCS = 1
	nodeWorkers    = 1
	clientID       = 250 // fabric id of the driver's session client (outside the node range)
)

// paths locates the repository around the benchmark: root holds
// cmd/cckvs-node, out receives node logs and traces, bin the built node.
type paths struct{ root, out, bin string }

// findPaths walks up from the working directory to the repository root, so
// the benchmark runs from the checkout root (the documented command) and from
// benchmark/ (go test) alike.
func findPaths() (paths, error) {
	dir, err := os.Getwd()
	if err != nil {
		return paths{}, err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "cmd", "cckvs-node", "main.go")); err == nil {
			return paths{
				root: dir,
				out:  filepath.Join(dir, "benchmark", "out"),
				bin:  filepath.Join(dir, ".bench_build", "bin", "cckvs-node"),
			}, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return paths{}, errors.New("cmd/cckvs-node not found above the working directory: run from a checkout of the repository")
		}
		dir = parent
	}
}

// buildNode compiles cmd/cckvs-node from the checkout's source (a no-op when
// the build cache is warm) and creates the output directory.
func buildNode(p paths) error {
	if err := os.MkdirAll(p.out, 0o755); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "-o", p.bin, "./cmd/cckvs-node")
	cmd.Dir = p.root
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("go build ./cmd/cckvs-node: %v\n%s", err, out)
	}
	return nil
}

// freePorts asks the kernel for n unused loopback ports. They are released
// before the nodes bind them; a collision in that window fails the set-up
// loudly (the node exits, WaitReady times out) rather than silently.
func freePorts(n int) ([]string, error) {
	addrs := make([]string, n)
	lns := make([]net.Listener, n)
	defer func() {
		for _, ln := range lns {
			if ln != nil {
				ln.Close()
			}
		}
	}()
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return nil, err
		}
		lns[i] = ln
		addrs[i] = ln.Addr().String()
	}
	return addrs, nil
}

// deployment is a running 3-node cluster of OS processes plus the driver's
// client. stop() is the only way out: it closes the client, kills every
// node's process group and returns once all have been reaped.
type deployment struct {
	addrs  []string
	pids   []int
	cl     *cluster.Client
	stopCh chan struct{}
	done   chan struct{}
	served chan int // a node whose shard is populated and serving reports its index here
	exited chan int // a node that exits before stop() reports its index here
}

// deploy spawns the nodes, waits until all answer pings and installs the hot
// set through the client surface. tag names the node log files.
func deploy(ctx context.Context, p paths, w workloadSpec, tag string) (*deployment, error) {
	addrs, err := freePorts(numNodes)
	if err != nil {
		return nil, fmt.Errorf("probe free ports: %w", err)
	}
	d := &deployment{
		addrs:  addrs,
		stopCh: make(chan struct{}),
		done:   make(chan struct{}),
		served: make(chan int, numNodes),
		exited: make(chan int, numNodes),
	}
	started := make(chan error, 1)
	go d.supervise(p, w, tag, started)
	if err := <-started; err != nil {
		<-d.done
		return nil, err
	}
	cl, err := cluster.DialTCP(clientID, addrs, cluster.WithTimeout(5*time.Second))
	if err != nil {
		d.stop()
		return nil, err
	}
	d.cl = cl
	if err := d.ready(ctx); err != nil {
		d.stop()
		return nil, err
	}
	return d, nil
}

// ready runs the set-up barrier: every node reports its shard populated and
// answers a ping, then ranks [0, hotKeys) become the symmetric cache through
// an online refresh. (A node accepts connections before it has populated its
// shard; a refresh that early would cache missing values.)
func (d *deployment) ready(ctx context.Context) error {
	for n := 0; n < numNodes; n++ {
		select {
		case <-d.served:
		case i := <-d.exited:
			return fmt.Errorf("node %d exited during set-up (see its log in benchmark/out)", i)
		case <-ctx.Done():
			return ctx.Err()
		}
	}
	errc := make(chan error, 1)
	go func() {
		if err := d.cl.WaitReady(20 * time.Second); err != nil {
			errc <- err
			return
		}
		_, _, err := d.cl.Refresh(0, hotSet())
		errc <- err
	}()
	select {
	case err := <-errc:
		return err
	case i := <-d.exited:
		return fmt.Errorf("node %d exited during set-up (see its log in benchmark/out)", i)
	case <-ctx.Done():
		return ctx.Err()
	}
}

// supervise owns the node processes for the deployment's whole life. It pins
// its OS thread because Pdeathsig fires when the *creating thread* exits: with
// the thread held until the nodes are reaped, the kernel kills the nodes
// exactly when this process dies for any reason the deferred paths cannot
// see (a panic on another goroutine, SIGKILL, a test timeout).
func (d *deployment) supervise(p paths, w workloadSpec, tag string, started chan<- error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defer close(d.done)

	proto := "sc"
	if w.lin {
		proto = "lin"
	}
	var cmds []*exec.Cmd
	waited := make(chan int, numNodes)
	kill := func() {
		for _, c := range cmds {
			// Negative pid: the node's whole process group.
			_ = syscall.Kill(-c.Process.Pid, syscall.SIGKILL)
		}
		for range cmds {
			<-waited
		}
	}
	for i := 0; i < numNodes; i++ {
		logf, err := os.Create(filepath.Join(p.out, fmt.Sprintf("node%d_%s.log", i, tag)))
		if err != nil {
			kill()
			started <- err
			return
		}
		cmd := exec.Command(p.bin,
			"-id", strconv.Itoa(i), "-peers", strings.Join(d.addrs, ","),
			"-protocol", proto, "-keys", strconv.Itoa(numKeys), "-cache", strconv.Itoa(hotKeys),
			"-value", strconv.Itoa(valueSize), "-workers", strconv.Itoa(nodeWorkers),
			// No failure is injected, so ping suspicion can only misfire on a
			// descheduled node; broken connections still surface.
			"-ping-interval", "0")
		cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(nodeGOMAXPROCS))
		cmd.Stderr = logf
		cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true, Pdeathsig: syscall.SIGKILL}
		stdout, err := cmd.StdoutPipe()
		if err == nil {
			err = cmd.Start()
		}
		if err != nil {
			logf.Close()
			kill()
			started <- fmt.Errorf("start node %d: %w", i, err)
			return
		}
		cmds = append(cmds, cmd)
		d.pids = append(d.pids, cmd.Process.Pid)
		go func(i int, cmd *exec.Cmd) {
			// Copy the node's stdout into its log; its "serving" line, printed
			// once the shard is populated, is the readiness signal.
			sc := bufio.NewScanner(stdout)
			for sc.Scan() {
				fmt.Fprintln(logf, sc.Text())
				if strings.Contains(sc.Text(), " serving ") {
					d.served <- i
				}
			}
			_ = cmd.Wait() // a killed node's exit status is not an error here
			logf.Close()
			select {
			case <-d.stopCh:
			default:
				d.exited <- i
			}
			waited <- i
		}(i, cmd)
	}
	started <- nil
	<-d.stopCh
	kill()
}

// stop tears the deployment down and returns once every node is reaped.
func (d *deployment) stop() {
	if d.cl != nil {
		_ = d.cl.Close() // pending calls fail with ErrClientClosed; nothing to report
	}
	select {
	case <-d.stopCh:
	default:
		close(d.stopCh)
	}
	<-d.done
}

// alive reports the node pids that still exist — empty after stop().
func (d *deployment) alive() []int {
	var live []int
	for _, pid := range d.pids {
		if syscall.Kill(pid, 0) == nil {
			live = append(live, pid)
		}
	}
	return live
}
