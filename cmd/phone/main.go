// Command phone runs the paper's end-to-end scenario (experiment E1) on
// the simulated device: boot the platform, force the Android issue-7986
// race between NotificationManagerService and StatusBarService, watch the
// interface freeze exactly once, reboot, and observe Dimmunix avoid the
// deadlock deterministically — with no user intervention.
//
// Usage:
//
//	phone [-vanilla] [-history FILE] [-runs N] [-v]
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	dimmunix "github.com/dimmunix/dimmunix"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "phone:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("phone", flag.ContinueOnError)
	vanilla := fs.Bool("vanilla", false, "run the vanilla platform (no immunity) as the baseline")
	history := fs.String("history", "", "persistent history file (default: in-memory)")
	runs := fs.Int("runs", 3, "how many times to trigger the race (reboot after each freeze)")
	verbose := fs.Bool("v", false, "stream Dimmunix events")
	anr := fs.Bool("anr", false, "print the thread-dump (traces.txt) report on each freeze")
	scenario := fs.String("scenario", "notification", "deadlock to trigger: notification (issue 7986) or window (AMS/WMS)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	var trigger func(*dimmunix.Phone) (dimmunix.ScenarioOutcome, error)
	switch *scenario {
	case "notification":
		trigger = func(ph *dimmunix.Phone) (dimmunix.ScenarioOutcome, error) {
			return ph.RunNotificationScenario(time.Minute)
		}
	case "window":
		trigger = func(ph *dimmunix.Phone) (dimmunix.ScenarioOutcome, error) {
			return ph.RunWindowScenario(time.Minute)
		}
	default:
		return fmt.Errorf("unknown -scenario %q (want notification or window)", *scenario)
	}

	cfg := dimmunix.DefaultPhoneConfig()
	cfg.Dimmunix = !*vanilla
	cfg.WatchdogInterval = 50 * time.Millisecond
	cfg.WatchdogThreshold = 2 * time.Second
	if *history != "" {
		cfg.History = dimmunix.NewFileHistory(*history)
	}

	ph := dimmunix.NewPhone(cfg)
	if err := ph.Boot(); err != nil {
		return err
	}
	defer ph.Shutdown()
	build := "Android Dimmunix"
	if *vanilla {
		build = "vanilla Android"
	}
	fmt.Printf("booted %s (watchdog %v, freeze after %v)\n", build, cfg.WatchdogInterval, cfg.WatchdogThreshold)

	if *verbose && !*vanilla {
		go streamEvents(ph)
	}

	for run := 1; run <= *runs; run++ {
		fmt.Printf("\n--- run %d: triggering the %s race ---\n", run, *scenario)
		out, err := trigger(ph)
		if err != nil {
			return fmt.Errorf("run %d: %w", run, err)
		}
		switch out {
		case dimmunix.OutcomeFroze:
			fmt.Println("PHONE FROZE: the watchdog reports the UI looper is stuck")
			if !*vanilla {
				sys := ph.System()
				for _, info := range sys.Proc.Dimmunix().History() {
					fmt.Printf("  recorded signature: %s\n", info)
				}
			}
			if *anr {
				if report := ph.LastANR(); report != nil {
					fmt.Println()
					fmt.Print(report)
				}
			}
			fmt.Println("rebooting...")
			if err := ph.Reboot(); err != nil {
				return err
			}
			if *verbose && !*vanilla {
				go streamEvents(ph)
			}
		case dimmunix.OutcomeCompleted:
			fmt.Println("scenario completed: both racing operations finished — no freeze")
			if !*vanilla {
				st := ph.System().Proc.Dimmunix().Stats()
				fmt.Printf("  avoidance engaged: %d yield(s), %d resume(s)\n", st.Yields, st.Resumes)
			}
		}
	}

	fmt.Printf("\nboots: %d\n", ph.Boots())
	if !*vanilla {
		fmt.Println("verdict: the phone hung once; the deadlock has not reoccurred (deadlock immunity)")
	} else {
		fmt.Println("verdict: the vanilla phone freezes every time the race fires")
	}
	return nil
}

// streamEvents prints core events of the current system server until its
// process dies.
func streamEvents(ph *dimmunix.Phone) {
	sys := ph.System()
	if sys == nil || sys.Proc.Dimmunix() == nil {
		return
	}
	for ev := range sys.Proc.Dimmunix().Events() {
		fmt.Printf("  [dimmunix] %s\n", ev)
	}
}
