"""RPR007 bad fixture: arguments and settimeout calls that bound nothing."""

import socket


def read_without_deadline(stream):
    return stream.recv(timeout=None)  # finding: timeout=None is no deadline


def dial_positional_none(addr):
    return socket.create_connection(addr, None)  # finding: positional None


def dial_keyword_none(addr):
    return socket.create_connection(addr, timeout=None)  # finding: keyword None


def armed_too_late(sock):
    data = sock.recv(16)  # finding: the deadline is armed only after the read
    sock.settimeout(1.0)
    return data


def disarmed_after_arming(sock):
    sock.settimeout(1.0)
    sock.settimeout(None)
    return sock.recv(16)  # finding: settimeout(None) disarmed the deadline
