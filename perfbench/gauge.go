package main

import (
	"fmt"
	"io"
	"math"
	"net"
	"syscall"
	"time"
	"unsafe"
)

// processCPU is the CPU time the process has used, in user and kernel
// mode, over all its threads. The kernel leaves out time the host took
// from the machine (steal), so other tenants' load moves it less than it
// moves wall time.
func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// gauge measures how fast the machine runs the kind of work the program
// does, at the moment it is asked. On a shared host the CPU time of the
// same code moves by a quarter and more within minutes, as other tenants
// contend for caches, memory and the kernel, so the benchmark divides
// each CPU time by a gauge reading taken alongside it. The kernels are
// the benchmark's own fixed code; nothing the program does changes
// their work, and they allocate nothing, so they start no collection.
//
// A reading is the geometric mean, over three kernels, of the kernel's
// CPU time divided by its nominal time: 1 on a quiet machine, 1.5 when
// the machine runs this kind of work 1.5 times slower. Each kernel alone
// tracked the program in some spells and not in others; the mean of the
// three was the steadiest over ten-run sets on both workloads.
type gauge struct {
	// Both buffers are mapped outside the Go heap, so they neither count
	// in live_heap_mb nor raise the collector's heap goal.
	mapped []byte
	cold   []uint64 // 16 MB written in turn: larger than any cache of the machine
	pos    int      // where the next cold write starts
	chain  []uint64 // 16 MB of fixed pseudo-random words, only read
	buf    []byte   // the echo kernel's message
	conn   net.Conn // to an in-process loopback echo server
	ln     net.Listener
	done   chan struct{} // closed when the echo server returns
	sink   uint64
}

// Nominal CPU time of each kernel on a quiet machine: the reference the
// benchmark's figures are scaled to (2-vCPU Xeon, go1.24).
const (
	coldWriteNominal  = 300 * time.Microsecond
	randomReadNominal = 300 * time.Microsecond
	echoNominal       = 300 * time.Microsecond
)

const (
	coldWriteWords = 128 << 10 // 1 MB of fresh cache lines
	randomReads    = 1000      // dependent loads, nearly all cache misses
	echoRounds     = 13        // 16 KB out and back over loopback TCP
	echoBytes      = 16 << 10
)

func newGauge() (*gauge, error) {
	const words = 2 << 20
	mapped, err := syscall.Mmap(-1, 0, 2*words*8, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("gauge: %w", err)
	}
	all := unsafe.Slice((*uint64)(unsafe.Pointer(&mapped[0])), 2*words)
	g := &gauge{mapped: mapped, cold: all[:words], chain: all[words:], buf: make([]byte, echoBytes), done: make(chan struct{})}
	x := uint64(88172645463325252) // xorshift
	for i := range g.chain {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		g.chain[i] = x
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		syscall.Munmap(mapped)
		return nil, err
	}
	g.ln = ln
	go func() {
		defer close(g.done)
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, echoBytes)
		for {
			if _, err := io.ReadFull(c, buf); err != nil {
				return
			}
			if _, err := c.Write(buf); err != nil {
				return
			}
		}
	}()
	if g.conn, err = net.Dial("tcp", ln.Addr().String()); err != nil {
		g.close()
		return nil, err
	}
	return g, nil
}

// close stops the echo server, waits for it to end and unmaps the
// buffers.
func (g *gauge) close() {
	if g.conn != nil {
		g.conn.Close()
	}
	g.ln.Close()
	<-g.done
	syscall.Munmap(g.mapped)
}

// read runs the three kernels once and returns the reading.
func (g *gauge) read() (float64, error) {
	write := cpuOf(g.coldWrite)
	random := cpuOf(g.randomRead)
	var err error
	echo := cpuOf(func() { err = g.echo() })
	if err != nil {
		return 0, fmt.Errorf("gauge: %w", err)
	}
	r := float64(write) / float64(coldWriteNominal) *
		float64(random) / float64(randomReadNominal) *
		float64(echo) / float64(echoNominal)
	return math.Cbrt(r), nil
}

func cpuOf(f func()) time.Duration {
	t := processCPU()
	f()
	return processCPU() - t
}

// coldWrite writes memory no cache holds, the way fresh allocations do.
func (g *gauge) coldWrite() {
	if g.pos+coldWriteWords > len(g.cold) {
		g.pos = 0
	}
	for i := g.pos; i < g.pos+coldWriteWords; i++ {
		g.cold[i] = uint64(i) ^ g.sink
	}
	g.pos += coldWriteWords
}

// randomRead chases a pseudo-random chain through the fixed words.
func (g *gauge) randomRead() {
	j, n := g.sink, uint64(len(g.chain))
	for i := 0; i < randomReads; i++ {
		j = g.chain[j%n] + uint64(i)
	}
	g.sink = j
}

// echo sends messages through the kernel's loopback TCP and back, the
// path of every rmi frame.
func (g *gauge) echo() error {
	for i := 0; i < echoRounds; i++ {
		if _, err := g.conn.Write(g.buf); err != nil {
			return err
		}
		if _, err := io.ReadFull(g.conn, g.buf); err != nil {
			return err
		}
	}
	return nil
}
