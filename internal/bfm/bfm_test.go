package bfm_test

import (
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bfm"
	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sysc"
	"repro/internal/trace"
)

func newBFM(t *testing.T) (*bfm.BFM, *sysc.Simulator) {
	t.Helper()
	sim := sysc.NewSimulator()
	t.Cleanup(sim.Shutdown)
	return bfm.New(sim, nil, bfm.DefaultConfig()), sim
}

func TestMachineCycleTiming(t *testing.T) {
	b, _ := newBFM(t)
	// 12 MHz / 12 clocks = 1 us machine cycle.
	if b.MachineCycle() != sysc.Us {
		t.Fatalf("machine cycle = %v, want 1 us", b.MachineCycle())
	}
}

func TestXRAMReadWrite(t *testing.T) {
	b, _ := newBFM(t)
	b.Mem.Write(0x1234, 0xAB)
	if got := b.Mem.Read(0x1234); got != 0xAB {
		t.Fatalf("read = %#x", got)
	}
	if got := b.Mem.Read(0x0000); got != 0 {
		t.Fatalf("uninitialized = %#x", got)
	}
	if b.Accesses() != 3 {
		t.Fatalf("accesses = %d", b.Accesses())
	}
	if b.BusCycles() != 6 { // 2 cycles per MOVX
		t.Fatalf("cycles = %d", b.BusCycles())
	}
}

func TestXRAMBlockOps(t *testing.T) {
	b, _ := newBFM(t)
	data := []byte{1, 2, 3, 4, 5}
	b.Mem.WriteBlock(0x100, data)
	got := b.Mem.ReadBlock(0x100, 5)
	for i := range data {
		if got[i] != data[i] {
			t.Fatalf("block mismatch at %d: %v", i, got)
		}
	}
	if b.BusCycles() != 20 {
		t.Fatalf("cycles = %d, want 20", b.BusCycles())
	}
}

// Property: XRAM stores and returns arbitrary byte/address pairs (last
// write wins).
func TestPropertyXRAMLastWriteWins(t *testing.T) {
	f := func(writes []struct {
		A uint16
		V byte
	}) bool {
		sim := sysc.NewSimulator()
		defer sim.Shutdown()
		b := bfm.New(sim, nil, bfm.DefaultConfig())
		last := map[uint16]byte{}
		for _, w := range writes {
			b.Mem.Write(w.A, w.V)
			last[w.A] = w.V
		}
		for a, v := range last {
			if b.Mem.Read(a) != v {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestBFMCallChargesCallingThread(t *testing.T) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	api := core.NewSimAPI(sim, sched.NewPriority(), nil)
	b := bfm.New(sim, api, bfm.DefaultConfig())
	task := api.CreateThread("io-task", core.KindTask, 10, func(tt *core.TThread) {
		b.Mem.Write(0x10, 1)      // 2 cycles = 2 us
		b.Mem.Read(0x10)          // 2 cycles
		b.Do(b.Ports[1].Write(7)) // 1 cycle
	})
	_ = api.Activate(task)
	if err := sim.Start(10 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if task.CET() != 5*sysc.Us {
		t.Fatalf("CET = %v, want 5 us", task.CET())
	}
	if task.CEE() == 0 {
		t.Fatal("no energy charged")
	}
}

func TestRTCDrivesTicks(t *testing.T) {
	b, sim := newBFM(t)
	n := 0
	sim.SpawnMethod("count", func() { n++ }, b.RTC.TickEvent())
	if err := sim.Start(10 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if n != 10 {
		t.Fatalf("ticks = %d, want 10", n)
	}
}

func TestInterruptControllerEnableLatch(t *testing.T) {
	b, _ := newBFM(t)
	var got []int
	b.IntC.SetSink(func(line int) { got = append(got, line) })
	b.IntC.Raise(3) // not enabled: latched
	if len(got) != 0 || !b.IntC.Pending(3) {
		t.Fatal("disabled raise should latch")
	}
	b.IntC.EnableLine(3) // delivers the latched request
	if len(got) != 1 || got[0] != 3 {
		t.Fatalf("got %v", got)
	}
	b.IntC.Raise(3)
	if len(got) != 2 {
		t.Fatal("enabled raise should deliver")
	}
	b.IntC.DisableLine(3)
	b.IntC.Raise(3)
	if len(got) != 2 {
		t.Fatal("masked raise delivered")
	}
}

func TestInterruptGlobalEnable(t *testing.T) {
	b, _ := newBFM(t)
	n := 0
	b.IntC.SetSink(func(int) { n++ })
	b.IntC.EnableLine(1)
	b.IntC.SetGlobalEnable(false)
	b.IntC.Raise(1)
	if n != 0 {
		t.Fatal("EA=0 should mask")
	}
	b.IntC.SetGlobalEnable(true)
	if n != 1 {
		t.Fatal("latched request not delivered on EA=1")
	}
}

func TestSerialTransmitTiming(t *testing.T) {
	b, sim := newBFM(t)
	ti := 0
	b.IntC.SetSink(func(line int) {
		if line == bfm.SerialIntLine {
			ti++
		}
	})
	b.IntC.EnableLine(bfm.SerialIntLine)
	// 9600 baud, 10 bits: ~1.0417 ms per frame.
	want := b.Serial.FrameTime()
	if want <= sysc.Ms || want >= 2*sysc.Ms {
		t.Fatalf("frame time = %v", want)
	}
	b.Do(b.Serial.Send('A'))
	if !b.Serial.TxBusy() {
		t.Fatal("transmitter should be busy")
	}
	if err := sim.Start(5 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if ti != 1 {
		t.Fatalf("TI interrupts = %d", ti)
	}
	if b.Serial.TxBusy() {
		t.Fatal("transmitter still busy")
	}
	if string(b.Serial.TxLog()) != "A" {
		t.Fatalf("tx log = %q", b.Serial.TxLog())
	}
}

func TestSerialBackToBackFrames(t *testing.T) {
	b, sim := newBFM(t)
	ti := 0
	b.IntC.SetSink(func(int) { ti++ })
	b.IntC.EnableLine(bfm.SerialIntLine)
	for _, c := range []byte("hey") {
		b.Do(b.Serial.Send(c))
	}
	if err := sim.Start(10 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if ti != 3 {
		t.Fatalf("TI = %d, want 3", ti)
	}
	if b.Serial.TxCount() != 3 {
		t.Fatalf("tx count = %d", b.Serial.TxCount())
	}
}

func TestSerialReceive(t *testing.T) {
	b, _ := newBFM(t)
	ri := 0
	b.IntC.SetSink(func(int) { ri++ })
	b.IntC.EnableLine(bfm.SerialIntLine)
	b.Serial.InjectRx('x')
	if ri != 1 || b.Serial.RxPending() != 1 {
		t.Fatalf("ri=%d pending=%d", ri, b.Serial.RxPending())
	}
	v, ok := b.Serial.Recv()
	if !ok || v != 'x' {
		t.Fatalf("recv = %c %v", v, ok)
	}
	if _, ok := b.Serial.Recv(); ok {
		t.Fatal("empty recv should fail")
	}
}

func TestPortPeripheralMux(t *testing.T) {
	b, _ := newBFM(t)
	lcd := bfm.NewLCD(2, 16)
	ssd := bfm.NewSSD()
	p := b.Ports[2]
	iLCD := p.Attach(lcd)
	iSSD := p.Attach(ssd)
	b.Do(p.Select(iLCD))
	b.Do(p.Write('H'))
	b.Do(p.Write('i'))
	b.Do(p.Select(iSSD))
	b.Do(p.Write(0x05)) // digit 0 = 5
	if got := lcd.Render(); !strings.HasPrefix(got, "Hi") {
		t.Fatalf("lcd = %q", got)
	}
	if ssd.Render() != "5---" {
		t.Fatalf("ssd = %q", ssd.Render())
	}
}

func TestLCDProtocol(t *testing.T) {
	lcd := bfm.NewLCD(2, 16)
	for _, c := range []byte("GAME") {
		lcd.PortWrite(c)
	}
	lcd.PortWrite(0x80 | 16) // cursor to row 1, col 0
	for _, c := range []byte("OVER") {
		lcd.PortWrite(c)
	}
	lines := strings.Split(lcd.Render(), "\n")
	if !strings.HasPrefix(lines[0], "GAME") || !strings.HasPrefix(lines[1], "OVER") {
		t.Fatalf("render:\n%s", lcd.Render())
	}
	lcd.PortWrite(0x01) // clear
	if strings.TrimSpace(lcd.Render()) != "" {
		t.Fatal("clear failed")
	}
	if lcd.Frames() != 1 {
		t.Fatalf("frames = %d", lcd.Frames())
	}
}

func TestKeypadRaisesInterrupt(t *testing.T) {
	b, _ := newBFM(t)
	var lines []int
	b.IntC.SetSink(func(l int) { lines = append(lines, l) })
	b.IntC.EnableLine(bfm.KeypadIntLine)
	pad := bfm.NewKeypad(b.IntC)
	b.Ports[1].Attach(pad)
	pad.Press(7)
	if len(lines) != 1 || lines[0] != bfm.KeypadIntLine {
		t.Fatalf("lines = %v", lines)
	}
	var got byte
	b.Do(b.Ports[1].Read(&got))
	if got != 7 {
		t.Fatalf("key read = %d", got)
	}
}

func TestSSDValue(t *testing.T) {
	ssd := bfm.NewSSD()
	ssd.PortWrite(0x01) // digit0=1
	ssd.PortWrite(0x12) // digit1=2
	ssd.PortWrite(0x23) // digit2=3
	ssd.PortWrite(0x34) // digit3=4
	if ssd.Value() != 1234 {
		t.Fatalf("value = %d", ssd.Value())
	}
	if ssd.Render() != "1234" {
		t.Fatalf("render = %q", ssd.Render())
	}
}

func TestSerialBusyQueuesNextFrame(t *testing.T) {
	// Writing SBUF while a frame is shifting queues the next frame after
	// the current one (busyTill extends), so total line time is 2 frames.
	b, sim := newBFM(t)
	b.Do(b.Serial.Send('a'))
	b.Do(b.Serial.Send('b')) // queued behind the first frame
	if err := sim.Start(1 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if !b.Serial.TxBusy() {
		t.Fatal("should still be shifting after 1 ms")
	}
	if err := sim.Start(3 * sysc.Ms); err != nil {
		t.Fatal(err)
	}
	if b.Serial.TxBusy() {
		t.Fatal("both frames should be out after ~2.1 ms")
	}
	if string(b.Serial.TxLog()) != "ab" {
		t.Fatalf("log = %q", b.Serial.TxLog())
	}
}

func TestPortSelectBounds(t *testing.T) {
	b, _ := newBFM(t)
	p := b.Ports[0]
	lcd := bfm.NewLCD(1, 8)
	p.Attach(lcd)
	b.Do(p.Select(99)) // out of range: ignored
	b.Do(p.Write('X'))
	if lcd.Writes() != 1 {
		t.Fatalf("write did not reach device after bad select: %d", lcd.Writes())
	}
	if p.Writes() != 1 || p.Latch() != 'X' {
		t.Fatalf("port bookkeeping: writes=%d latch=%q", p.Writes(), p.Latch())
	}
}

func TestVCDProbesBFMTraffic(t *testing.T) {
	sim := sysc.NewSimulator()
	defer sim.Shutdown()
	vcd := trace.NewVCD()
	cfg := bfm.DefaultConfig()
	cfg.VCD = vcd
	b := bfm.New(sim, nil, cfg)
	b.Mem.Write(0x42, 0x99)
	b.Do(b.Ports[0].Write(0x55))
	if vcd.Len() < 3 {
		t.Fatalf("vcd changes = %d", vcd.Len())
	}
	var sb strings.Builder
	vcd.Render(&sb)
	out := sb.String()
	if !strings.Contains(out, "$enddefinitions") || !strings.Contains(out, "xram.addr") {
		t.Fatalf("vcd output malformed:\n%s", out)
	}
}
