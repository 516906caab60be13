package main

// Child processes the harness owns: camserve and the keep-awake child.
// Every child is registered, dies with the harness (Pdeathsig), and is
// killed and reaped on every exit path.

import (
	"bytes"
	"fmt"
	"os/exec"
	"sync"
	"syscall"
)

var (
	childMu  sync.Mutex
	children = map[*child]bool{}
)

// child is one process the harness owns.
type child struct {
	cmd  *exec.Cmd
	addr string        // camserve's listen address
	done chan struct{} // closed once the process has been reaped
	err  error         // Wait's result, valid after done
	out  *tailBuffer
}

// killChildren kills and reaps every live child; every exit path of the
// harness runs it.
func killChildren() {
	childMu.Lock()
	live := make([]*child, 0, len(children))
	for c := range children {
		live = append(live, c)
	}
	childMu.Unlock()
	for _, c := range live {
		c.stop()
	}
}

// spawn starts a child process the harness owns: it is registered for
// killChildren, dies with the harness, and is reaped by a goroutine
// that closes done.
func spawn(bin string, args ...string) (*child, error) {
	c := &child{done: make(chan struct{}), out: &tailBuffer{max: 8 << 10}}
	c.cmd = exec.Command(bin, args...)
	c.cmd.Stdout = c.out
	c.cmd.Stderr = c.out
	// The child dies with the harness even if the harness is killed.
	c.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := c.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	childMu.Lock()
	children[c] = true
	childMu.Unlock()
	go func() {
		c.err = c.cmd.Wait()
		close(c.done)
	}()
	return c, nil
}

// alive reports an error if the child has exited.
func (c *child) alive() error {
	select {
	case <-c.done:
		return fmt.Errorf("%s exited (%v); output:\n%s", c.cmd.Path, c.err, c.out)
	default:
		return nil
	}
}

// stop kills the child and waits until it has been reaped.
func (c *child) stop() {
	select {
	case <-c.done:
	default:
		_ = c.cmd.Process.Kill() // fails only if it already exited; done says when
		<-c.done
	}
	childMu.Lock()
	delete(children, c)
	childMu.Unlock()
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	b   []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.b = append(t.b, p...)
	if len(t.b) > t.max {
		t.b = append(t.b[:0], t.b[len(t.b)-t.max:]...)
	}
	return len(p), nil
}

func (t *tailBuffer) contains(s string) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return bytes.Contains(t.b, []byte(s))
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.b)
}
