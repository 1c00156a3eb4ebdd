/**
 * @file
 * Launcher for one measured process. It forks, execs the program and
 * reports the program's own rusage. The driver does not start decasim
 * itself because Linux carries the pre-exec RSS high-water mark into the
 * child's ru_maxrss: a child of the Python driver could never read below
 * the driver's peak. This launcher's footprint is far smaller.
 *
 *   spawn <program> [args...]
 *
 * stdout passes through to the program; its stdin and stderr are
 * /dev/null. On its own stderr the launcher prints "pid <pid>" once the
 * program runs, waits for EOF on its stdin (so the driver can open a
 * pidfd before the program can be reaped), then prints
 * "exit <wait status> <user s> <sys s> <maxrss KiB> <own VmHWM KiB>"
 * once the program has ended. The launcher's own high-water mark comes
 * from /proc, not getrusage: its ru_maxrss carries the driver's peak in
 * the same way.
 */

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include <fcntl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

namespace {

/** VmHWM of this process in KiB, or -1. */
long
ownHighWaterKiB()
{
    std::FILE *f = std::fopen("/proc/self/status", "r");
    if (f == nullptr)
        return -1;
    long kib = -1;
    char line[256];
    while (std::fgets(line, sizeof line, f) != nullptr) {
        if (std::strncmp(line, "VmHWM:", 6) == 0) {
            kib = std::strtol(line + 6, nullptr, 10);
            break;
        }
    }
    std::fclose(f);
    return kib;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: %s <program> [args...]\n", argv[0]);
        return 2;
    }
    const pid_t pid = fork();
    if (pid < 0) {
        std::perror("fork");
        return 1;
    }
    if (pid == 0) {
        const int null = open("/dev/null", O_RDWR);
        if (null < 0 || dup2(null, 0) < 0 || dup2(null, 2) < 0)
            _exit(127);
        execv(argv[1], argv + 1);
        _exit(127);
    }
    std::fprintf(stderr, "pid %d\n", static_cast<int>(pid));
    std::fflush(stderr);
    char buf[64];
    while (read(0, buf, sizeof buf) > 0) {
    }

    int status = 0;
    rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0) {
        if (errno != EINTR) {
            std::perror("wait4");
            return 1;
        }
    }
    std::fprintf(stderr, "exit %d %ld.%06ld %ld.%06ld %ld %ld\n", status,
                 static_cast<long>(ru.ru_utime.tv_sec),
                 static_cast<long>(ru.ru_utime.tv_usec),
                 static_cast<long>(ru.ru_stime.tv_sec),
                 static_cast<long>(ru.ru_stime.tv_usec), ru.ru_maxrss,
                 ownHighWaterKiB());
    return 0;
}
