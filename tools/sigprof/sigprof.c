/* A sampling profiler to LD_PRELOAD into an unmodified program.
 *
 * Every millisecond of CPU time (ITIMER_PROF) the SIGPROF handler stores
 * the interrupted stack with backtrace(3). At exit the process writes
 * sigprof.<pid>.txt into its working directory: its /proc/self/maps
 * ("map" lines), then one "sample" line of return addresses per tick.
 * fold.py turns that into per-function shares.
 *
 *   cc -O2 -shared -fPIC -o sigprof.so sigprof.c
 *   LD_PRELOAD=$PWD/sigprof.so ./program args...
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <signal.h>
#include <stdio.h>
#include <sys/time.h>
#include <unistd.h>

#define MAX_SAMPLES 65536 /* 65 s of CPU at 1 kHz; later ticks are dropped */
#define DEPTH 48

static void *stacks[MAX_SAMPLES][DEPTH];
static int depths[MAX_SAMPLES];
static volatile sig_atomic_t taken;

static void on_tick(int sig) {
    (void)sig;
    int i = taken;
    if (i < MAX_SAMPLES) {
        depths[i] = backtrace(stacks[i], DEPTH);
        taken = i + 1;
    }
}

__attribute__((constructor)) static void start(void) {
    void *warm[1];
    backtrace(warm, 1); /* loads the unwinder before any signal can */
    struct sigaction sa = {0};
    sa.sa_handler = on_tick;
    sa.sa_flags = SA_RESTART;
    sigaction(SIGPROF, &sa, NULL);
    struct itimerval every_ms = {{0, 1000}, {0, 1000}};
    setitimer(ITIMER_PROF, &every_ms, NULL);
}

__attribute__((destructor)) static void dump(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
    char path[64], line[4096];
    snprintf(path, sizeof path, "sigprof.%d.txt", (int)getpid());
    FILE *out = fopen(path, "w"), *maps = fopen("/proc/self/maps", "r");
    if (!out || !maps)
        return;
    while (fgets(line, sizeof line, maps))
        fprintf(out, "map %s", line);
    for (int i = 0; i < taken; i++) {
        fputs("sample", out);
        for (int d = 0; d < depths[i]; d++)
            fprintf(out, " %p", stacks[i][d]);
        fputc('\n', out);
    }
    fclose(maps);
    fclose(out);
}
