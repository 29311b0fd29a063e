package main

import (
	"errors"
	"io"
	"net"
	"time"
)

// The host-speed unit.
//
// On the shared 2-vCPU VMs this benchmark is compared on, the same binary
// runs up to 1.6x slower for minutes at a time with no steal reported:
// the whole process — user code, system calls, wake-ups — slows in one
// proportion, and so does everything else on the machine. The handoff
// probe measures that proportion with code that is not the program under
// test: the time of one round trip of a small message between two
// goroutines over a loopback TCP connection, which is the step the
// client, the server and the replication stream are made of. Over 18
// runs spread across such phases the logarithm of a workload's segment
// time regressed on the logarithm of the probe's reading with a slope of
// 0.92-1.06 and left a residual of 3-5 % where the raw spread was
// 13-15 %; see README.md.
//
// Every timing metric of the served run is therefore reported in the
// time of a reference host, one on which a round trip costs
// handoffRefUS: a measured duration is multiplied by handoffRefUS ÷ the
// run's mean reading. The readings and the raw values are printed next
// to the normalised ones.
const (
	handoffRounds  = 1000 // round trips per reading (8-13 ms)
	handoffMsgSize = 64
	handoffRefUS   = 10.0
)

// handoffProbe is a loopback connection with a goroutine echoing at the
// far end.
type handoffProbe struct {
	conn   net.Conn
	echoed chan error // the echo goroutine's exit
	buf    [handoffMsgSize]byte
}

func newHandoffProbe() (*handoffProbe, error) {
	lis, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	p := &handoffProbe{echoed: make(chan error, 1)}
	go func() {
		c, err := lis.Accept()
		lis.Close()
		if err != nil {
			p.echoed <- err
			return
		}
		defer c.Close()
		var buf [handoffMsgSize]byte
		for {
			if _, err := io.ReadFull(c, buf[:]); err != nil {
				if errors.Is(err, io.EOF) {
					err = nil // the probe was closed
				}
				p.echoed <- err
				return
			}
			if _, err := c.Write(buf[:]); err != nil {
				p.echoed <- err
				return
			}
		}
	}()
	if p.conn, err = net.Dial("tcp", lis.Addr().String()); err != nil {
		lis.Close() // fails the Accept, which ends the goroutine
		<-p.echoed
		return nil, err
	}
	return p, nil
}

// readings takes n readings back to back — handoffRounds round trips
// each — and returns the mean time of a round trip in microseconds.
func (p *handoffProbe) readings(n int) (float64, error) {
	start := time.Now()
	for i := 0; i < n*handoffRounds; i++ {
		if _, err := p.conn.Write(p.buf[:]); err != nil {
			return 0, err
		}
		if _, err := io.ReadFull(p.conn, p.buf[:]); err != nil {
			return 0, err
		}
	}
	return float64(time.Since(start).Nanoseconds()) / 1e3 / float64(n*handoffRounds), nil
}

// close ends the echo goroutine and waits for it.
func (p *handoffProbe) close() error {
	err := p.conn.Close()
	return errors.Join(err, <-p.echoed)
}

// toRefHost converts a duration (or a duration per operation) measured
// while the probe read handoffUS to the reference host's time.
func toRefHost(measured, handoffUS float64) float64 {
	return measured * handoffRefUS / handoffUS
}
